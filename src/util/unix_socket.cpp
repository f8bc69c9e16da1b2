#include "util/unix_socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace memsched::util {

namespace {

/// Fills a sockaddr_un for `path`; false + ENAMETOOLONG when it cannot fit.
bool fill_addr(const std::string& path, sockaddr_un& addr) {
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    errno = ENAMETOOLONG;
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

int cloexec_socket() {
  return ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Fd unix_listen(const std::string& path, int backlog) {
  sockaddr_un addr{};
  if (!fill_addr(path, addr)) return Fd{};
  Fd fd(cloexec_socket());
  if (!fd.valid()) return Fd{};
  // The daemon owns its socket path: a leftover file from a dead instance
  // would otherwise make bind fail with EADDRINUSE forever.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
    return Fd{};
  if (::listen(fd.get(), backlog) != 0) return Fd{};
  return fd;
}

Fd unix_accept(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return Fd(fd);
    if (errno != EINTR) return Fd{};
  }
}

Fd unix_connect(const std::string& path) {
  sockaddr_un addr{};
  if (!fill_addr(path, addr)) return Fd{};
  Fd fd(cloexec_socket());
  if (!fd.valid()) return Fd{};
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    if (errno != EINTR) return Fd{};
  }
}

bool read_exact(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      errno = 0;  // clean EOF mid-message
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace memsched::util
