// Durable write-ahead job queue for the sweep daemon.
//
// One append-only file (`queue.wal`) holds the full job history as framed,
// CRC-checked records (serve/wire.hpp, fields in ckpt's codec). Every state change appends a fresh
// complete record for the job — last record per id wins on replay — so a
// mutation is a single frame append + fsync, and a SIGKILL at ANY byte
// offset leaves a prefix of whole frames plus at most one torn tail frame
// that recovery detects and truncates. Nothing is acknowledged to a client
// before its frame is durable, so a torn submit was by definition never
// acked and the client's bounded retry resubmits it; duplicate submissions
// are collapsed by job key. Together: exactly-once submission.
//
// Failure philosophy mirrors the result cache: queue I/O trouble must not
// take the daemon down. An append that fails (ENOSPC, EIO) after the torn
// bytes are rolled back flips the queue into DEGRADED mode — state keeps
// advancing in memory, one grep-able MEMSCHED_SERVE_DEGRADED line explains
// why on stderr, and every later mutation first attempts a full compaction
// (atomic rewrite via util::atomic_write_file), which heals the queue the
// moment the filesystem recovers. All file I/O goes through util::read_file,
// util::write_all and util::atomic_write_file and so consults the
// thread-local util::fs_fault_hooks() seam: every one of those paths is
// unit-testable with MEMSCHED_FSFAULT-style deterministic fault injection.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/fs_fault.hpp"

namespace memsched::serve {

/// Lifecycle of one submitted sweep job.
enum class JobState : std::uint8_t {
  kQueued = 0,     ///< waiting for a runner
  kRunning = 1,    ///< dispatched to a runner process
  kDone = 2,       ///< report captured; terminal
  kFailed = 3,     ///< retries exhausted; terminal until resubmitted
  kCancelled = 4,  ///< client cancel; terminal until resubmitted
};

/// Name of a JobState ("queued", "running", ...). Stable wire vocabulary.
[[nodiscard]] const char* job_state_name(JobState s);

/// One queue record — the complete durable state of a job. Appended in full
/// on every transition; the WAL never stores deltas.
struct QueueRecord {
  std::uint64_t id = 0;        ///< daemon-assigned, monotonically increasing
  std::string key;             ///< dedupe identity (config fingerprint + grid)
  JobState state = JobState::kQueued;
  std::uint32_t attempts = 0;  ///< runner attempts consumed so far
  std::string spec;            ///< submitted grid config (key=value text)
  std::string error;           ///< diagnosis when state == kFailed
};

/// Serializes one record payload (framing is the caller's job). Kept as a
/// free function paired with decode_queue_record so the codec symmetry is
/// lint-checkable.
[[nodiscard]] std::vector<std::uint8_t> encode_queue_record(const QueueRecord& rec);

/// Parses one record payload. Throws ckpt::SnapshotError on structural
/// corruption, trailing bytes included.
[[nodiscard]] QueueRecord decode_queue_record(const std::uint8_t* data,
                                              std::size_t size);

class JobQueue {
 public:
  /// `dir` is the queue directory (created on open). `faults`, when set, is
  /// armed around every filesystem touch the queue makes — and nothing else.
  /// `verbose` gates the informational recovery/heal lines; the
  /// MEMSCHED_SERVE_DEGRADED diagnostic is contract output and always prints.
  explicit JobQueue(std::string dir, util::FsFaultHooks* faults = nullptr,
                    bool verbose = true);
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Creates the directory if needed, replays the WAL, truncates any torn or
  /// corrupt tail, and opens the append handle. False when the queue cannot
  /// even operate in memory (directory uncreatable) or the WAL exists but
  /// cannot be read (its bytes are then left untouched); error() says why.
  bool open();

  [[nodiscard]] const std::string& error() const { return error_; }

  struct SubmitResult {
    std::uint64_t id = 0;
    bool accepted = false;   ///< job will run (fresh, or failed/cancelled requeue)
    bool duplicate = false;  ///< key matched an existing live or done job
  };

  /// Idempotent submission: a key matching a queued/running/done job returns
  /// that job untouched; a key matching a failed/cancelled job requeues it;
  /// otherwise a new record is appended. The record is durable (fsync) before
  /// this returns, unless the queue is degraded.
  SubmitResult submit(const std::string& key, const std::string& spec);

  /// State transitions. Each appends a durable record; returns false only
  /// for an unknown id. `attempts` bumping is folded into mark_running.
  bool mark_running(std::uint64_t id);
  bool mark_done(std::uint64_t id);
  bool mark_failed(std::uint64_t id, const std::string& diagnosis);
  bool mark_cancelled(std::uint64_t id);
  /// Running -> queued (runner died / daemon drained); attempts preserved.
  bool requeue(std::uint64_t id);

  [[nodiscard]] const QueueRecord* find(std::uint64_t id) const;
  [[nodiscard]] const QueueRecord* find_by_key(const std::string& key) const;

  /// All jobs, id-ascending (deterministic).
  [[nodiscard]] std::vector<const QueueRecord*> jobs() const;

  /// Oldest queued job, or nullptr.
  [[nodiscard]] const QueueRecord* next_queued() const;

  /// Rewrites the WAL with only the latest record per job (atomic replace).
  /// Run on open after a truncation, when the log grows well past the live
  /// set, and as the healing step while degraded. False = still degraded.
  bool compact();

  /// True when the last durability attempt failed and in-memory state is
  /// ahead of disk. Cleared by the first successful compact().
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Bytes discarded by torn/corrupt-tail truncation during open().
  [[nodiscard]] std::uint64_t truncated_bytes() const { return truncated_bytes_; }

  /// Records replayed from disk during open().
  [[nodiscard]] std::size_t replayed() const { return replayed_; }

  [[nodiscard]] std::string wal_path() const;

 private:
  bool append_record(const QueueRecord& rec);
  bool write_frame_locked(const std::vector<std::uint8_t>& frame);
  void enter_degraded(const std::string& why);
  bool ensure_open_fd();

  std::string dir_;
  util::FsFaultHooks* faults_;
  bool verbose_;
  int fd_ = -1;
  std::uint64_t durable_size_ = 0;  ///< bytes of WAL known to be whole frames
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, QueueRecord> jobs_;
  std::map<std::string, std::uint64_t> by_key_;
  bool degraded_ = false;
  bool degraded_announced_ = false;
  std::uint64_t truncated_bytes_ = 0;
  std::size_t replayed_ = 0;
  std::string error_;
};

}  // namespace memsched::serve
