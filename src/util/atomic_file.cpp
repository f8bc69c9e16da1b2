#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "util/fs_fault.hpp"

namespace memsched::util {

namespace {

[[noreturn]] void fail(FileOp op, const std::string& path) {
  throw AtomicFileError(op, errno, path);
}

template <typename Bytes>
int read_whole(const std::string& path, Bytes& out) {
  out.clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno;  // before the seam: a missing file draws nothing
  int err = injected_errno("open");
  struct stat st {};
  if (err == 0 && ::fstat(fd, &st) != 0) err = errno;
  // One byte past the size fstat reports: a whole file is one read(2) plus
  // the read that sees EOF, and a file that grows meanwhile reads to its end.
  if (err == 0) out.resize(static_cast<std::size_t>(st.st_size) + 1);
  std::size_t used = 0;
  while (err == 0) {
    if (used == out.size()) out.resize(2 * used);
    const ssize_t n = ::read(fd, out.data() + used, out.size() - used);
    if (n > 0) {
      used += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      err = errno;
    }
  }
  ::close(fd);
  if (err == 0) err = injected_errno("read");
  out.resize(err == 0 ? used : 0);
  return err;
}

}  // namespace

int read_file(const std::string& path, std::string& out) { return read_whole(path, out); }

int read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  return read_whole(path, out);
}

bool write_all(int fd, const void* data, std::size_t size) {
  FsFaultHooks* hooks = fs_fault_hooks();
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    // A shortened chunk exercises the same retry path a real partial write
    // takes; an injected errno exercises the error path.
    std::size_t chunk = size;
    if (hooks != nullptr) {
      if ((errno = hooks->fail_op("write")) != 0) return false;
      chunk = hooks->clamp_write(size);
      if (chunk == 0 || chunk > size) chunk = size;
    }
    const ssize_t n = ::write(fd, p, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

const char* file_op_name(FileOp op) {
  switch (op) {
    case FileOp::kOpen: return "open";
    case FileOp::kWrite: return "write";
    case FileOp::kFsync: return "fsync";
    case FileOp::kClose: return "close";
    case FileOp::kRename: return "rename";
  }
  return "?";
}

AtomicFileError::AtomicFileError(FileOp op, int errno_value, const std::string& path)
    : std::runtime_error(std::string("atomic_write_file: ") + file_op_name(op) +
                         " failed on " + path + ": " + std::strerror(errno_value)),
      op_(op),
      errno_(errno_value) {}

std::string atomic_tmp_path(const std::string& path) {
  // The temp name must be unique per writer: with a fixed "path + .tmp" two
  // processes (or threads) replacing the same file concurrently would
  // O_TRUNC each other's in-flight bytes and one rename could publish the
  // other's half-written payload. PID makes it unique across processes, the
  // counter across threads and successive writes racing a slow rename.
  static std::atomic<std::uint64_t> counter{0};
  char suffix[48];
  std::snprintf(suffix, sizeof suffix, ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  return path + suffix;
}

void atomic_write_file(const std::string& path, const void* data, std::size_t size) {
  const std::string tmp = atomic_tmp_path(path);
  if ((errno = injected_errno("open")) != 0) fail(FileOp::kOpen, tmp);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail(FileOp::kOpen, tmp);

  if (!write_all(fd, data, size)) {
    ::close(fd);
    std::remove(tmp.c_str());
    fail(FileOp::kWrite, tmp);
  }
  // The rename only commits bytes that are already durable; without the
  // fsync a power cut could publish a complete-looking but empty file.
  if ((errno = injected_errno("fsync")) != 0 || ::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    fail(FileOp::kFsync, tmp);
  }
  if ((errno = injected_errno("close")) != 0 || ::close(fd) != 0) {
    std::remove(tmp.c_str());
    fail(FileOp::kClose, tmp);
  }
  if ((errno = injected_errno("rename")) != 0 ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail(FileOp::kRename, path);
  }
}

void atomic_write_file(const std::string& path, const std::string& data) {
  atomic_write_file(path, data.data(), data.size());
}

}  // namespace memsched::util
