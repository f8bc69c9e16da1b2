#include "cache/result_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "ckpt/snapshot.hpp"
#include "util/atomic_file.hpp"
#include "util/wallclock.hpp"

namespace memsched::cache {

namespace fs = std::filesystem;

namespace {

constexpr char kKeySep = '\x1f';

void sleep_seconds(double seconds) {
  if (seconds <= 0.0) return;
  ::usleep(static_cast<useconds_t>(seconds * 1e6));
}

/// Entry payload codec. Writer and reader sides must mirror each other
/// field for field — memsched-lint (ckpt-symmetry) checks that this
/// encode/decode pair stays symmetric.
void encode_result_entry(ckpt::Writer& w, const std::string& point_name,
                         const std::string& payload) {
  w.begin_section("result");
  w.put_str(point_name);
  w.put_str(payload);
}

void decode_result_entry(ckpt::Reader& r, std::string& point_name,
                         std::string& payload) {
  r.open_section("result");
  point_name = r.get_str();
  payload = r.get_str();
  r.close_section();
}

/// Unique name for a file parked in quarantine/ (several sweeps may park
/// artifacts with the same basename).
std::string quarantine_name(const std::string& dir, const std::string& victim) {
  static std::atomic<std::uint64_t> counter{0};
  char suffix[48];
  std::snprintf(suffix, sizeof suffix, ".%ld.%llu", static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  return dir + "/quarantine/" + fs::path(victim).filename().string() + suffix;
}

/// Advisory per-entry writer lock with a bounded, backoff-paced wait. The
/// kernel drops the lock when the holder dies, so a crashed writer can never
/// wedge later sweeps — the bounded wait only matters for *live* writers.
class FlockGuard {
 public:
  FlockGuard(const std::string& path, double timeout_seconds,
             const util::Backoff& backoff) {
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) return;
    const auto start = util::monotonic_now();
    for (std::uint32_t attempt = 1;; ++attempt) {
      if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) {
        locked_ = true;
        return;
      }
      if (errno != EWOULDBLOCK && errno != EINTR) break;
      if (util::seconds_between(start, util::monotonic_now()) >= timeout_seconds) break;
      sleep_seconds(backoff.delay_seconds(attempt));
    }
    ::close(fd_);
    fd_ = -1;
  }
  ~FlockGuard() {
    if (fd_ >= 0) ::close(fd_);  // close releases the flock
  }
  FlockGuard(const FlockGuard&) = delete;
  FlockGuard& operator=(const FlockGuard&) = delete;

  [[nodiscard]] bool locked() const { return locked_; }

 private:
  int fd_ = -1;
  bool locked_ = false;
};

/// True when the entry lock for `lock_path` can be taken right now — i.e.
/// no live writer holds it. Used by fsck to tell a dead writer's leftovers
/// from an in-flight commit.
bool lock_is_free(const std::string& lock_path) {
  const int fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return false;  // cannot tell; err on the safe side
  const bool free = ::flock(fd, LOCK_EX | LOCK_NB) == 0;
  ::close(fd);
  return free;
}

double age_of(const fs::path& p) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(p, ec);
  if (ec) return 0.0;  // vanished or unreadable: treat as young (leave it)
  return util::file_age_seconds(mtime, util::file_now());
}

bool move_to_quarantine(const std::string& dir, const std::string& victim) {
  std::error_code ec;
  fs::create_directories(dir + "/quarantine", ec);
  fs::rename(victim, quarantine_name(dir, victim), ec);
  return !ec;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// ResultCache

ResultCache::ResultCache(ResultCacheConfig cfg, util::FsFaultHooks* faults)
    : cfg_(std::move(cfg)), faults_(faults) {
  std::error_code ec;
  fs::create_directories(cfg_.dir + "/objects", ec);
  if (!ec) fs::create_directories(cfg_.dir + "/intents", ec);
  if (!ec) fs::create_directories(cfg_.dir + "/quarantine", ec);
  if (ec) {
    diag("cache directory " + cfg_.dir + " unusable (" + ec.message() +
         "); caching disabled for this sweep");
    return;
  }
  enabled_ = true;
}

std::string ResultCache::key_string(const std::string& point_name) const {
  return std::string(kResultCacheSchema) + kKeySep + cfg_.fingerprint + kKeySep +
         point_name;
}

std::string ResultCache::entry_path(const std::string& point_name) const {
  const std::string key = hex64(fnv1a64(key_string(point_name)));
  return cfg_.dir + "/objects/" + key.substr(0, 2) + "/" + key + ".entry";
}

std::string ResultCache::lock_path(const std::string& point_name) const {
  const std::string key = hex64(fnv1a64(key_string(point_name)));
  return cfg_.dir + "/objects/" + key.substr(0, 2) + "/" + key + ".lock";
}

std::string ResultCache::intent_path(const std::string& point_name) const {
  return cfg_.dir + "/intents/" + hex64(fnv1a64(key_string(point_name))) + ".intent";
}

void ResultCache::diag(const std::string& what) const {
  if (!cfg_.diagnostics) return;
  // One grep-able line per degradation, mirroring the MEMSCHED_ERROR record
  // convention: token, then a single human-readable clause.
  std::fprintf(stderr, "MEMSCHED_CACHE_DEGRADED %s\n", what.c_str());
}

void ResultCache::quarantine(const std::string& path, const char* reason) {
  if (move_to_quarantine(cfg_.dir, path)) {
    ++stats_.quarantined;
    diag(std::string("quarantined ") + path + " (" + reason + ")");
  } else {
    // Even the rename failed; drop the file so it cannot be served again.
    std::remove(path.c_str());
    ++stats_.quarantined;
    diag(std::string("removed unquarantinable ") + path + " (" + reason + ")");
  }
}

bool ResultCache::get(const std::string& point_name, std::string* payload) {
  if (!enabled_) return false;
  // Arm this cache's fault source for the duration of the lookup; with no
  // source configured, re-installing the current hooks is a no-op (so hooks
  // a test armed around the whole sweep still apply).
  util::ScopedFsFaults armed(faults_ != nullptr ? faults_ : util::fs_fault_hooks());
  const bool hit = try_get(point_name, payload);
  if (hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return hit;
}

bool ResultCache::try_get(const std::string& point_name, std::string* payload) {
  const std::string path = entry_path(point_name);
  const std::string expected_key = key_string(point_name);

  std::vector<std::uint8_t> raw;
  for (std::uint32_t attempt = 1;; ++attempt) {
    const int err = util::read_file(path, raw);
    if (err == 0) break;
    if (err == ENOENT) return false;  // plain miss: not an error
    ++stats_.read_errors;
    if (attempt > cfg_.max_retries) {
      diag("read " + path + " failed after " + std::to_string(cfg_.max_retries) +
           " retries (" + std::strerror(err) + "); treating as miss");
      return false;
    }
    sleep_seconds(cfg_.backoff.delay_seconds(attempt));
  }
  // Injected bit flips land in the image and are caught by the entry's CRCs.
  if (util::FsFaultHooks* hooks = util::fs_fault_hooks(); hooks && !raw.empty()) {
    hooks->corrupt_read(raw.data(), raw.size());
  }

  try {
    ckpt::Reader r(raw, expected_key);
    std::string stored_name;
    decode_result_entry(r, stored_name, *payload);
    if (stored_name != point_name) {
      // Cannot happen unless the file was forged: the name is part of the
      // key the Reader just validated. Treat as corruption all the same.
      throw ckpt::SnapshotError("entry name does not match its key");
    }
    return true;
  } catch (const ckpt::SnapshotError& e) {
    // Torn by bit rot or carrying the wrong key: move it out of the serving
    // path so every future lookup is an honest miss, then re-simulate.
    quarantine(path, e.what());
    return false;
  }
}

void ResultCache::put(const std::string& point_name, const std::string& payload) {
  if (!enabled_) return;
  util::ScopedFsFaults armed(faults_ != nullptr ? faults_ : util::fs_fault_hooks());
  try_put(point_name, payload);
}

void ResultCache::try_put(const std::string& point_name, const std::string& payload) {
  const std::string entry = entry_path(point_name);
  const std::string intent = intent_path(point_name);

  std::error_code ec;
  fs::create_directories(fs::path(entry).parent_path(), ec);
  if (ec) {
    ++stats_.store_errors;
    diag("cannot create shard dir for " + entry + " (" + ec.message() + ")");
    return;
  }
  if (fs::exists(entry, ec)) {
    ++stats_.store_skips;  // another worker (or a prior run) got here first
    return;
  }

  FlockGuard lock(lock_path(point_name), cfg_.lock_timeout_seconds, cfg_.backoff);
  if (!lock.locked()) {
    ++stats_.lock_timeouts;
    diag("lock on " + entry + " not acquired within " +
         std::to_string(cfg_.lock_timeout_seconds) + " s; skipping store");
    return;
  }
  if (fs::exists(entry, ec)) {  // decided while we waited for the lock
    ++stats_.store_skips;
    return;
  }

  // A leftover intent under OUR exclusive lock can only belong to a dead
  // writer (a live one would still hold the flock). Reclaim: park any tmp
  // file it left behind, then drop the intent.
  if (fs::exists(intent, ec)) {
    const fs::path shard = fs::path(entry).parent_path();
    const std::string stem = fs::path(entry).filename().string();  // <key>.entry
    for (const auto& de : fs::directory_iterator(shard, ec)) {
      const std::string name = de.path().filename().string();
      if (name.size() > stem.size() && name.compare(0, stem.size(), stem) == 0 &&
          name.compare(stem.size(), 5, ".tmp.") == 0) {
        move_to_quarantine(cfg_.dir, de.path().string());
      }
    }
    fs::remove(intent, ec);
    ++stats_.stale_reclaimed;
    diag("reclaimed stale intent for " + entry + " (dead writer)");
  }

  // Write-ahead intent: from here until the intent is removed again, a crash
  // is detectable — fsck (or the next writer) knows a commit died here.
  try {
    util::atomic_write_file(intent, std::to_string(::getpid()) + " " + entry + "\n");
  } catch (const util::AtomicFileError& e) {
    ++stats_.store_errors;
    diag(std::string("intent write failed (") + util::file_op_name(e.op()) + ": " +
         std::strerror(e.errno_value()) + "); skipping store");
    return;
  }

  ckpt::Writer w;
  encode_result_entry(w, point_name, payload);
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      w.save(entry, key_string(point_name));
      break;
    } catch (const util::AtomicFileError& e) {
      if (attempt > cfg_.max_retries) {
        ++stats_.store_errors;
        diag(std::string("store of ") + entry + " failed after " +
             std::to_string(cfg_.max_retries) + " retries (" +
             util::file_op_name(e.op()) + ": " + std::strerror(e.errno_value()) +
             "); sweep continues uncached");
        fs::remove(intent, ec);  // the commit is over; don't leave a decoy
        return;
      }
      sleep_seconds(cfg_.backoff.delay_seconds(attempt));
    }
  }
  fs::remove(intent, ec);  // entry is durable; the intent has done its job
  ++stats_.stores;
}

// ---------------------------------------------------------------------------
// Offline inspection / repair

EntryCheck check_entry_file(const std::string& path) {
  EntryCheck c;
  c.path = path;

  std::vector<std::uint8_t> raw;
  if (const int err = util::read_file(path, raw); err != 0) {
    c.error = std::string("unreadable: ") + std::strerror(err);
    return c;
  }
  c.bytes = raw.size();

  try {
    // Any key parses; the key is then checked against the schema and the
    // filename it must hash to.
    ckpt::Reader r(raw);
    const std::string& key = r.fingerprint();
    if (key.compare(0, std::strlen(kResultCacheSchema), kResultCacheSchema) != 0) {
      c.error = "entry written by a different cache schema";
      return c;
    }
    if (fs::path(path).stem().string() != hex64(fnv1a64(key))) {
      c.error = "filename does not match embedded key (misfiled entry)";
      return c;
    }
    std::string payload;
    decode_result_entry(r, c.point_name, payload);
  } catch (const ckpt::SnapshotError& e) {
    c.error = e.what();
    return c;
  }
  c.ok = true;
  return c;
}

CacheScan scan_cache(const std::string& dir) {
  CacheScan scan;
  std::error_code ec;
  for (const auto& de : fs::recursive_directory_iterator(dir + "/objects", ec)) {
    if (!de.is_regular_file(ec)) continue;
    const std::string p = de.path().string();
    const std::string name = de.path().filename().string();
    if (name.size() > 6 && name.compare(name.size() - 6, 6, ".entry") == 0) {
      EntryCheck c = check_entry_file(p);
      scan.entry_bytes += c.bytes;
      if (!c.ok) ++scan.corrupt;
      scan.entries.push_back(std::move(c));
    } else if (name.find(".tmp.") != std::string::npos) {
      scan.tmp_orphans.push_back(p);
    }
  }
  for (const auto& de : fs::directory_iterator(dir + "/intents", ec)) {
    if (de.is_regular_file(ec)) scan.intents.push_back(de.path().string());
  }
  for (const auto& de : fs::directory_iterator(dir + "/quarantine", ec)) {
    if (de.is_regular_file(ec)) scan.quarantined.push_back(de.path().string());
  }
  return scan;
}

namespace {

/// Lock file guarding the artifact at `p` (an entry tmp or an intent): both
/// derive from the entry stem, whose first 16 chars are the key hex.
std::string guarding_lock(const std::string& dir, const fs::path& p) {
  const std::string name = p.filename().string();
  if (name.size() < 16) return {};
  const std::string key = name.substr(0, 16);
  return dir + "/objects/" + key.substr(0, 2) + "/" + key + ".lock";
}

/// Dead-writer test for a leftover artifact: reclaim when its writer's lock
/// is free (the kernel released it at death), or — if the lock cannot be
/// probed or is genuinely held — when the artifact has outlived the lease
/// (a wedged writer forfeits its claim after bounded age).
bool reclaimable(const std::string& dir, const fs::path& p, double lease_seconds) {
  const std::string lock = guarding_lock(dir, p);
  if (!lock.empty() && lock_is_free(lock)) return true;
  return age_of(p) >= lease_seconds;
}

}  // namespace

FsckResult fsck_cache(const std::string& dir, double lease_seconds) {
  FsckResult r;
  const CacheScan scan = scan_cache(dir);
  for (const EntryCheck& c : scan.entries) {
    if (c.ok) continue;
    if (move_to_quarantine(dir, c.path)) ++r.entries_quarantined;
  }
  for (const std::string& tmp : scan.tmp_orphans) {
    if (!reclaimable(dir, tmp, lease_seconds)) continue;
    if (move_to_quarantine(dir, tmp)) ++r.tmp_quarantined;
  }
  std::error_code ec;
  for (const std::string& intent : scan.intents) {
    if (!reclaimable(dir, intent, lease_seconds)) continue;
    fs::remove(intent, ec);
    if (!ec) ++r.intents_removed;
  }
  return r;
}

std::size_t gc_cache(const std::string& dir, double max_age_seconds) {
  std::size_t removed = 0;
  std::error_code ec;
  const CacheScan scan = scan_cache(dir);
  for (const EntryCheck& c : scan.entries) {
    if (age_of(c.path) < max_age_seconds) continue;
    fs::remove(c.path, ec);
    if (!ec) ++removed;
  }
  for (const std::string& q : scan.quarantined) {
    if (age_of(q) < max_age_seconds) continue;
    fs::remove(q, ec);
    if (!ec) ++removed;
  }
  return removed;
}

}  // namespace memsched::cache
