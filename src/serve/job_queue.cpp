#include "serve/job_queue.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "ckpt/snapshot.hpp"
#include "serve/wire.hpp"
#include "util/atomic_file.hpp"

namespace fs = std::filesystem;

namespace memsched::serve {

namespace {

/// Compact once the dead-record overhead exceeds this many bytes. Low enough
/// that the log stays small, high enough that steady-state mutations are one
/// cheap append, not a rewrite.
constexpr std::uint64_t kCompactSlackBytes = 256 * 1024;

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_queue_record(const QueueRecord& rec) {
  ckpt::Writer w;
  w.put_u64(rec.id);
  w.put_str32(rec.key);
  w.put_u8(static_cast<std::uint8_t>(rec.state));
  w.put_u32(rec.attempts);
  w.put_str32(rec.spec);
  w.put_str32(rec.error);
  return w.record();
}

QueueRecord decode_queue_record(const std::uint8_t* data, std::size_t size) {
  ckpt::Reader r = ckpt::Reader::record(data, size);
  QueueRecord rec;
  rec.id = r.get_u64();
  rec.key = r.get_str32();
  const std::uint8_t state = r.get_u8();
  if (state > static_cast<std::uint8_t>(JobState::kCancelled)) {
    throw ckpt::SnapshotError("queue record: unknown job state");
  }
  rec.state = static_cast<JobState>(state);
  rec.attempts = r.get_u32();
  rec.spec = r.get_str32();
  rec.error = r.get_str32();
  r.close_section();  // trailing bytes are corruption, not slack
  return rec;
}

JobQueue::JobQueue(std::string dir, util::FsFaultHooks* faults, bool verbose)
    : dir_(std::move(dir)), faults_(faults), verbose_(verbose) {}

JobQueue::~JobQueue() {
  if (fd_ >= 0) ::close(fd_);
}

std::string JobQueue::wal_path() const { return dir_ + "/queue.wal"; }

bool JobQueue::open() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    error_ = "queue: cannot create directory " + dir_ + ": " + ec.message();
    return false;
  }

  // Replay. The whole file is read up front (queues are small — a few KB per
  // thousand jobs after compaction) and scanned frame by frame; the first
  // frame that doesn't check out marks the recovery point.
  jobs_.clear();
  by_key_.clear();
  next_id_ = 1;
  durable_size_ = 0;
  truncated_bytes_ = 0;
  replayed_ = 0;

  std::vector<std::uint8_t> raw;
  {
    util::ScopedFsFaults armed(faults_);
    // A WAL that exists but cannot be read is refused untouched: recovery
    // below may rewrite the file, and must only ever rewrite what it read.
    if (const int err = util::read_file(wal_path(), raw); err != 0 && err != ENOENT) {
      error_ = "queue: cannot read " + wal_path() + ": " + std::strerror(err);
      return false;
    }
    util::FsFaultHooks* hooks = util::fs_fault_hooks();
    if (hooks && !raw.empty()) hooks->corrupt_read(raw.data(), raw.size());
  }

  const std::uint8_t* data = raw.data();
  std::size_t off = 0;
  std::string tail_diagnosis;
  while (off < raw.size()) {
    FrameParse fp = parse_frame(kQueueFrameMagic, data + off, raw.size() - off);
    if (!fp.ok) {
      tail_diagnosis = fp.need_more ? "torn tail frame" : fp.error;
      break;
    }
    try {
      QueueRecord rec = decode_queue_record(fp.payload.data(), fp.payload.size());
      by_key_.erase(jobs_.count(rec.id) ? jobs_[rec.id].key : rec.key);
      by_key_[rec.key] = rec.id;
      if (rec.id >= next_id_) next_id_ = rec.id + 1;
      jobs_[rec.id] = std::move(rec);
      ++replayed_;
    } catch (const ckpt::SnapshotError& e) {
      tail_diagnosis = e.what();
      break;
    }
    off += fp.consumed;
  }
  durable_size_ = off;

  if (off < raw.size()) {
    truncated_bytes_ = raw.size() - off;
    if (verbose_) {
      std::fprintf(stderr,
                   "memsched_served: queue recovery: %s at byte %zu; truncating %llu "
                   "trailing byte(s)\n",
                   tail_diagnosis.c_str(), off,
                   static_cast<unsigned long long>(truncated_bytes_));
    }
    // Rewrite the clean prefix atomically rather than ftruncate-ing in place:
    // a crash mid-truncate then re-replays and re-truncates; a crash
    // mid-rewrite leaves the old file, same outcome. compact() also drops
    // dead records while we are here.
    if (!compact()) {
      // Degraded from the first breath — compact() already announced it.
      error_.clear();
      return true;
    }
  }

  return ensure_open_fd() || degraded_;
}

bool JobQueue::ensure_open_fd() {
  if (fd_ >= 0) return true;
  util::ScopedFsFaults armed(faults_);
  if (const int err = util::injected_errno("open"); err != 0) {
    errno = err;
  } else {
    fd_ = ::open(wal_path().c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  }
  if (fd_ < 0) {
    enter_degraded(std::string("cannot open WAL: ") + std::strerror(errno));
    return false;
  }
  return true;
}

void JobQueue::enter_degraded(const std::string& why) {
  degraded_ = true;
  if (!degraded_announced_) {
    degraded_announced_ = true;
    std::fprintf(stderr,
                 "MEMSCHED_SERVE_DEGRADED: job queue is not durable (%s); serving "
                 "from memory, will heal by compaction\n",
                 why.c_str());
  }
}

bool JobQueue::write_frame_locked(const std::vector<std::uint8_t>& frame) {
  util::ScopedFsFaults armed(faults_);
  if (util::write_all(fd_, frame.data(), frame.size()) &&
      (errno = util::injected_errno("fsync")) == 0 && ::fsync(fd_) == 0) {
    durable_size_ += frame.size();
    return true;
  }
  const int saved_errno = errno;
  // Roll the torn bytes back so later appends land after whole frames only.
  // If even that fails the WAL has a torn tail; recovery truncates it, and
  // we stop appending (degraded) so no good record lands beyond the tear.
  if (::ftruncate(fd_, static_cast<off_t>(durable_size_)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
  errno = saved_errno;
  return false;
}

bool JobQueue::append_record(const QueueRecord& rec) {
  if (degraded_) {
    // Healing path: one successful compaction writes everything, including
    // this record (already applied to memory by the caller's copy).
    return compact();
  }
  if (!ensure_open_fd()) return false;
  const std::vector<std::uint8_t> frame =
      frame_payload(kQueueFrameMagic, encode_queue_record(rec));
  if (!write_frame_locked(frame)) {
    enter_degraded(std::string("append failed: ") + std::strerror(errno));
    return false;
  }
  // Opportunistic hygiene: once dead records dominate, fold the log.
  const std::uint64_t live = static_cast<std::uint64_t>(jobs_.size()) * 64;
  if (durable_size_ > live + kCompactSlackBytes) (void)compact();
  return true;
}

JobQueue::SubmitResult JobQueue::submit(const std::string& key,
                                        const std::string& spec) {
  SubmitResult res;
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    QueueRecord& existing = jobs_[it->second];
    res.id = existing.id;
    res.duplicate = true;
    if (existing.state == JobState::kFailed ||
        existing.state == JobState::kCancelled) {
      existing.state = JobState::kQueued;
      existing.attempts = 0;
      existing.error.clear();
      existing.spec = spec;
      res.accepted = true;
      append_record(existing);
    }
    return res;
  }
  QueueRecord rec;
  rec.id = next_id_++;
  rec.key = key;
  rec.state = JobState::kQueued;
  rec.spec = spec;
  jobs_[rec.id] = rec;
  by_key_[key] = rec.id;
  res.id = rec.id;
  res.accepted = true;
  append_record(rec);
  return res;
}

bool JobQueue::mark_running(std::uint64_t id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second.state = JobState::kRunning;
  it->second.attempts += 1;
  append_record(it->second);
  return true;
}

bool JobQueue::mark_done(std::uint64_t id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second.state = JobState::kDone;
  it->second.error.clear();
  append_record(it->second);
  return true;
}

bool JobQueue::mark_failed(std::uint64_t id, const std::string& diagnosis) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second.state = JobState::kFailed;
  it->second.error = diagnosis;
  append_record(it->second);
  return true;
}

bool JobQueue::mark_cancelled(std::uint64_t id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second.state = JobState::kCancelled;
  append_record(it->second);
  return true;
}

bool JobQueue::requeue(std::uint64_t id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second.state = JobState::kQueued;
  append_record(it->second);
  return true;
}

const QueueRecord* JobQueue::find(std::uint64_t id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

const QueueRecord* JobQueue::find_by_key(const std::string& key) const {
  auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : find(it->second);
}

std::vector<const QueueRecord*> JobQueue::jobs() const {
  std::vector<const QueueRecord*> out;
  out.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) out.push_back(&rec);
  return out;
}

const QueueRecord* JobQueue::next_queued() const {
  for (const auto& [id, rec] : jobs_) {
    if (rec.state == JobState::kQueued) return &rec;
  }
  return nullptr;
}

bool JobQueue::compact() {
  std::vector<std::uint8_t> image;
  for (const auto& [id, rec] : jobs_) {
    const std::vector<std::uint8_t> frame =
        frame_payload(kQueueFrameMagic, encode_queue_record(rec));
    image.insert(image.end(), frame.begin(), frame.end());
  }
  // The append handle must not survive the rename underneath it.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  try {
    util::ScopedFsFaults armed(faults_);
    util::atomic_write_file(wal_path(), image.data(), image.size());
  } catch (const util::AtomicFileError& e) {
    enter_degraded(std::string("compaction failed: ") + e.what());
    return false;
  }
  durable_size_ = image.size();
  if (degraded_) {
    degraded_ = false;
    degraded_announced_ = false;
    if (verbose_) {
      std::fprintf(stderr,
                   "memsched_served: job queue healed by compaction (%zu job(s))\n",
                   jobs_.size());
    }
  }
  return ensure_open_fd();
}

}  // namespace memsched::serve
