// Thin RAII wrapper around AF_UNIX stream sockets.
//
// The serve subsystem talks to its clients over a Unix-domain socket; this
// header keeps the raw syscall handling (socket/bind/listen/accept/connect,
// EINTR-safe exact reads, CLOEXEC hygiene) in util so the daemon and the
// client tool share one audited implementation and src/serve stays free of
// errno plumbing. Writes go through util::write_all (util/atomic_file.hpp),
// the one write loop for files and sockets. Deliberately low-level: framing,
// CRCs and message vocabulary live a layer up (src/serve/wire.*) — util must
// not depend on ckpt's crc32.
//
// All functions are synchronous and return -1/false with errno set on
// failure; nothing here throws. Callers that need bounded waits poll the fd
// themselves (the daemon's event loop) or retry on a util::Backoff schedule
// (the client).
#pragma once

#include <cstddef>
#include <string>

namespace memsched::util {

/// Owning fd handle: closes on destruction, move-only. An fd of -1 means
/// "empty" (moved-from or failed).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Releases ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Binds and listens on a Unix-domain stream socket at `path` (an existing
/// socket file is unlinked first — the daemon owns its socket path).
/// Returns an invalid Fd with errno set on failure, including
/// ENAMETOOLONG when `path` exceeds sockaddr_un::sun_path.
[[nodiscard]] Fd unix_listen(const std::string& path, int backlog = 16);

/// Accepts one pending connection (CLOEXEC); invalid Fd + errno on failure.
[[nodiscard]] Fd unix_accept(int listen_fd);

/// Connects to the Unix-domain socket at `path`; invalid Fd + errno on
/// failure (ENOENT / ECONNREFUSED when no daemon is listening).
[[nodiscard]] Fd unix_connect(const std::string& path);

/// Reads exactly `size` bytes, looping over short reads and EINTR. False on
/// EOF or error (errno 0 on clean EOF).
[[nodiscard]] bool read_exact(int fd, void* data, std::size_t size);

}  // namespace memsched::util
