// Whole-file I/O: atomic, durable file replacement and its read twin.
//
// Crash-safe persistence primitive shared by the sweep manifest, the
// simulator snapshot writer, the result cache and the daemon's job queue:
// the payload is written to a writer-unique temp name
// (`path + ".tmp.<pid>.<seq>"`), fsync()ed so the bytes are on stable
// storage, then rename()d over `path`. A crash at any
// instant leaves either the previous complete file or the new complete file
// — never a torn mix — which is what lets a killed sweep or simulation trust
// whatever checkpoint it finds on restart. The unique temp name makes
// concurrent writers safe: parallel sweep workers sharing a directory can
// never clobber each other's in-flight temp file, and the last rename wins
// with a complete payload.
//
// Failures surface as AtomicFileError carrying WHICH operation failed and
// the errno: an fsync ENOSPC (durability lost, payload may be gone) and a
// close EIO (writeback failed behind our back) are different failures from a
// plain write error, and callers that degrade gracefully (the result cache)
// classify on them. read_file returns the errno instead, and every caller
// maps it to its own contract. All operations consult util::fs_fault_hooks()
// so the ENOSPC/EIO/short-write paths are unit-testable without filling a
// disk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace memsched::util {

/// Which syscall of the write-temp/fsync/close/rename sequence failed.
enum class FileOp { kOpen, kWrite, kFsync, kClose, kRename };

/// Name of a FileOp ("open", "write", "fsync", "close", "rename").
[[nodiscard]] const char* file_op_name(FileOp op);

/// An atomic_write_file failure: carries the failing operation and errno so
/// callers can tell "no space while making bytes durable" from "cannot even
/// create the temp file" instead of parsing a collapsed message string.
class AtomicFileError : public std::runtime_error {
 public:
  AtomicFileError(FileOp op, int errno_value, const std::string& path);

  [[nodiscard]] FileOp op() const { return op_; }
  [[nodiscard]] int errno_value() const { return errno_; }

 private:
  FileOp op_;
  int errno_;
};

/// Atomically replaces `path` with `size` bytes from `data` (unique tmp +
/// fsync + rename). Throws AtomicFileError on any I/O failure; on failure
/// the previous contents of `path`, if any, are untouched and the temp file
/// is removed.
void atomic_write_file(const std::string& path, const void* data, std::size_t size);

/// String convenience overload.
void atomic_write_file(const std::string& path, const std::string& data);

/// Reads the whole of `path` into `out`, replacing its contents. Returns 0,
/// or the errno of the failed open or read (`out` is then empty). A missing
/// file is ENOENT and draws nothing from the fault seam; a file that exists
/// draws "open" and then "read". The caller maps the errno to its contract.
[[nodiscard]] int read_file(const std::string& path, std::string& out);
[[nodiscard]] int read_file(const std::string& path, std::vector<std::uint8_t>& out);

/// Writes exactly `size` bytes to `fd`, looping over short writes and EINTR.
/// Each chunk draws "write" from the fault seam and is clamped by it. False
/// with errno set on failure.
[[nodiscard]] bool write_all(int fd, const void* data, std::size_t size);

/// The writer-unique temp name the next atomic_write_file would use for
/// `path` (PID + monotonic counter suffix). Exposed for tests.
[[nodiscard]] std::string atomic_tmp_path(const std::string& path);

}  // namespace memsched::util
