// Result-cache robustness tests: crash-safe commit protocol, the corruption
// quarantine matrix (truncation, bit flips, misfiled keys), degraded-mode
// behaviour under injected ENOSPC/EIO/short writes, offline fsck/gc repair,
// retry-backoff determinism, atomic_file error surfacing, and the
// warm-vs-cold byte-parity contract through the sweep orchestrator.
#include <gtest/gtest.h>
#include <sys/file.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "ckpt/snapshot.hpp"
#include "harness/orchestrator.hpp"
#include "mc/fault_injector.hpp"
#include "util/atomic_file.hpp"
#include "util/backoff.hpp"
#include "util/fs_fault.hpp"
#include "util/json.hpp"

using namespace memsched;
namespace fs = std::filesystem;

namespace {

std::string tmp_dir(const std::string& name) {
  const std::string d = testing::TempDir() + "memsched_rcache_" + name;
  fs::remove_all(d);
  return d;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

cache::ResultCacheConfig quick_cfg(const std::string& dir) {
  cache::ResultCacheConfig cc;
  cc.dir = dir;
  cc.fingerprint = "test-sweep-fp";
  cc.backoff.base_seconds = 0.0;  // unit tests never sleep
  cc.diagnostics = false;         // keep test logs quiet
  return cc;
}

/// Scripted fault hooks: fail one named op with one errno for the first
/// `fail_count` consultations, optionally clamp writes.
struct ScriptedFaults : util::FsFaultHooks {
  std::string fail_name;
  int fail_errno = 0;
  int fail_count = 0;  // -1 = always
  std::size_t clamp = 0;

  std::size_t clamp_write(std::size_t requested) override {
    if (clamp == 0 || requested <= clamp) return requested;
    return clamp;
  }
  int fail_op(const char* op) override {
    if (fail_name != op || fail_count == 0) return 0;
    if (fail_count > 0) --fail_count;
    return fail_errno;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Basic hit/miss/store behaviour and key separation.

TEST(ResultCache, PutGetRoundTripAndStats) {
  cache::ResultCache rc(quick_cfg(tmp_dir("roundtrip")));
  ASSERT_TRUE(rc.enabled());

  std::string payload;
  EXPECT_FALSE(rc.get("pt-0", &payload));
  rc.put("pt-0", "{\"value\":1}");
  ASSERT_TRUE(rc.get("pt-0", &payload));
  EXPECT_EQ(payload, "{\"value\":1}");

  rc.put("pt-0", "{\"value\":2}");  // already present: first store wins
  ASSERT_TRUE(rc.get("pt-0", &payload));
  EXPECT_EQ(payload, "{\"value\":1}");

  EXPECT_EQ(rc.stats().hits, 2u);
  EXPECT_EQ(rc.stats().misses, 1u);
  EXPECT_EQ(rc.stats().stores, 1u);
  EXPECT_EQ(rc.stats().store_skips, 1u);
  EXPECT_EQ(rc.stats().quarantined, 0u);
}

// An entry's bytes are a durable format shared by every sweep that points
// at the same cache directory: a change must be deliberate.
TEST(ResultCache, EntryBytesPinned) {
  const std::string dir = tmp_dir("pinned");
  cache::ResultCache rc(quick_cfg(dir));
  rc.put("pt-pinned", "{\"v\":1}");
  const std::string bytes = slurp(rc.entry_path("pt-pinned"));
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    hex += kDigits[static_cast<std::uint8_t>(c) >> 4];
    hex += kDigits[static_cast<std::uint8_t>(c) & 0xf];
  }
  EXPECT_EQ(hex,
            "4d454d53434b5031020000002a0000006d656d73636865642d7263616368652d76311f74"
            "6573742d73776565702d66701f70742d70696e6e65640100000006000000726573756c74"
            "200000000000000051121ec6090000000000000070742d70696e6e656407000000000000"
            "007b2276223a317d");
}

TEST(ResultCache, KeysSeparateFingerprintsAndNames) {
  const std::string dir = tmp_dir("keys");
  cache::ResultCache a(quick_cfg(dir));
  a.put("pt", "from-a");

  cache::ResultCacheConfig other = quick_cfg(dir);
  other.fingerprint = "different-sweep";
  cache::ResultCache b(other);

  std::string payload;
  EXPECT_FALSE(b.get("pt", &payload));   // other fingerprint: other key
  EXPECT_FALSE(a.get("pt-2", &payload)); // other name: other key
  ASSERT_TRUE(a.get("pt", &payload));
  EXPECT_EQ(payload, "from-a");
  EXPECT_NE(a.entry_path("pt"), b.entry_path("pt"));
}

TEST(ResultCache, UnusableDirectoryDisablesInsteadOfThrowing) {
  const std::string file = tmp_dir("notadir");
  spew(file, "occupied");
  cache::ResultCache rc(quick_cfg(file + "/cache"));
  EXPECT_FALSE(rc.enabled());
  std::string payload;
  EXPECT_FALSE(rc.get("pt", &payload));
  rc.put("pt", "x");  // silently ignored
  EXPECT_EQ(rc.stats().stores, 0u);
}

// ---------------------------------------------------------------------------
// Corruption matrix: a damaged entry must never be served — it is
// quarantined and the lookup degrades to an honest miss.

TEST(ResultCache, TruncationAtEveryPrefixQuarantinesAndMisses) {
  const std::string dir = tmp_dir("trunc");
  cache::ResultCache rc(quick_cfg(dir));
  rc.put("pt", "{\"v\":42}");
  const std::string entry = rc.entry_path("pt");
  const std::string intact = slurp(entry);
  ASSERT_GT(intact.size(), 24u);

  const std::size_t cuts[] = {0, 1, 7, 8, 12, 15, 16, intact.size() / 2,
                              intact.size() - 1};
  std::uint64_t quarantined_before = 0;
  for (const std::size_t cut : cuts) {
    spew(entry, intact.substr(0, cut));
    std::string payload;
    EXPECT_FALSE(rc.get("pt", &payload)) << "served a truncated entry, cut=" << cut;
    EXPECT_EQ(rc.stats().quarantined, quarantined_before + 1) << "cut=" << cut;
    quarantined_before = rc.stats().quarantined;
    EXPECT_FALSE(fs::exists(entry)) << "truncated entry left in serving path";
  }
  // The serving path heals: a fresh store works and hits again.
  rc.put("pt", "{\"v\":42}");
  std::string payload;
  ASSERT_TRUE(rc.get("pt", &payload));
  EXPECT_EQ(payload, "{\"v\":42}");
}

TEST(ResultCache, TrailingBytesQuarantineAndMiss) {
  // Bytes after the last section are covered by no CRC: the entry parser
  // refuses them, so the entry is quarantined and the lookup misses.
  const std::string dir = tmp_dir("trailing");
  cache::ResultCache rc(quick_cfg(dir));
  rc.put("pt", "{\"v\":42}");
  const std::string entry = rc.entry_path("pt");
  spew(entry, slurp(entry) + "garbage");
  std::string payload;
  EXPECT_FALSE(rc.get("pt", &payload));
  EXPECT_EQ(rc.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(entry));
}

TEST(ResultCache, SingleBitFlipsNeverServeWrongBytes) {
  const std::string dir = tmp_dir("bitflip");
  cache::ResultCache rc(quick_cfg(dir));
  rc.put("pt", "{\"v\":\"payload-under-test\"}");
  const std::string entry = rc.entry_path("pt");
  const std::string intact = slurp(entry);

  std::size_t misses = 0;
  for (std::size_t byte = 0; byte < intact.size(); ++byte) {
    std::string bent = intact;
    bent[byte] = static_cast<char>(bent[byte] ^ 0x10);
    spew(entry, bent);
    std::string payload;
    if (rc.get("pt", &payload)) {
      // A flip a validator ignores is tolerable only if the payload is intact.
      EXPECT_EQ(payload, "{\"v\":\"payload-under-test\"}") << "byte=" << byte;
      spew(entry, intact);  // undo for the next position
    } else {
      ++misses;
      spew(entry, intact);  // quarantined: restore the serving copy
    }
  }
  // The frame validates every region (header, key, section CRCs): flips are
  // overwhelmingly caught, and none may ever leak wrong payload bytes.
  EXPECT_GT(misses, intact.size() / 2);
}

TEST(ResultCache, MisfiledEntryIsRejectedByEmbeddedKey) {
  const std::string dir = tmp_dir("misfiled");
  cache::ResultCache rc(quick_cfg(dir));
  rc.put("pt-a", "payload-a");

  // Serve pt-a's bytes under pt-b's filename — a hash collision or a mixed-up
  // restore. The embedded key string must veto it.
  const std::string victim = rc.entry_path("pt-b");
  fs::create_directories(fs::path(victim).parent_path());
  fs::copy_file(rc.entry_path("pt-a"), victim);

  std::string payload;
  EXPECT_FALSE(rc.get("pt-b", &payload));
  EXPECT_EQ(rc.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(victim));

  const cache::EntryCheck c = cache::check_entry_file(rc.entry_path("pt-a"));
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.point_name, "pt-a");
}

TEST(ResultCache, CheckEntryFileDiagnosesGarbageAndMisfiles) {
  const std::string dir = tmp_dir("checkfile");
  cache::ResultCache rc(quick_cfg(dir));
  rc.put("pt", "p");

  cache::EntryCheck ok = cache::check_entry_file(rc.entry_path("pt"));
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.point_name, "pt");
  EXPECT_GT(ok.bytes, 0u);

  const std::string garbage = dir + "/objects/zz/0123456789abcdef.entry";
  fs::create_directories(dir + "/objects/zz");
  spew(garbage, "this is not a cache entry");
  cache::EntryCheck bad = cache::check_entry_file(garbage);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("magic"), std::string::npos);

  // Valid frame, wrong filename: stem/key cross-check must fire.
  const std::string moved = fs::path(rc.entry_path("pt")).parent_path().string() +
                            "/00000000deadbeef.entry";
  fs::copy_file(rc.entry_path("pt"), moved);
  cache::EntryCheck misfiled = cache::check_entry_file(moved);
  EXPECT_FALSE(misfiled.ok);
  EXPECT_NE(misfiled.error.find("misfiled"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Crash protocol: stale intents, dead-writer reclamation, live-writer locks.

TEST(ResultCache, StaleIntentReclaimedOnNextPut) {
  const std::string dir = tmp_dir("intent");
  cache::ResultCache rc(quick_cfg(dir));

  // Simulate a writer SIGKILLed mid-commit: intent written, tmp orphaned,
  // no entry. The flock died with the writer, so the next put reclaims.
  const std::string entry = rc.entry_path("pt");
  const std::string shard = fs::path(entry).parent_path().string();
  fs::create_directories(shard);
  spew(rc.intent_path("pt"), "999999 " + entry + "\n");
  const std::string orphan =
      shard + "/" + fs::path(entry).filename().string() + ".tmp.999999.0";
  spew(orphan, "half-written bytes");

  rc.put("pt", "fresh-payload");
  EXPECT_EQ(rc.stats().stale_reclaimed, 1u);
  EXPECT_EQ(rc.stats().stores, 1u);
  EXPECT_FALSE(fs::exists(rc.intent_path("pt")));
  EXPECT_FALSE(fs::exists(orphan)) << "orphaned tmp still in the shard";
  EXPECT_FALSE(cache::scan_cache(dir).quarantined.empty());

  std::string payload;
  ASSERT_TRUE(rc.get("pt", &payload));
  EXPECT_EQ(payload, "fresh-payload");
}

TEST(ResultCache, LiveWriterLockTimesOutToSkippedStore) {
  const std::string dir = tmp_dir("locked");
  cache::ResultCacheConfig cc = quick_cfg(dir);
  cc.lock_timeout_seconds = 0.05;
  cc.backoff.base_seconds = 0.01;
  cache::ResultCache rc(cc);

  const std::string lock = rc.lock_path("pt");
  fs::create_directories(fs::path(lock).parent_path());
  const int fd = ::open(lock.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);  // pose as a live writer

  rc.put("pt", "payload");
  EXPECT_EQ(rc.stats().lock_timeouts, 1u);
  EXPECT_EQ(rc.stats().stores, 0u);
  EXPECT_FALSE(fs::exists(rc.entry_path("pt")));

  ::close(fd);  // releases the flock
  rc.put("pt", "payload");
  EXPECT_EQ(rc.stats().stores, 1u);
}

// ---------------------------------------------------------------------------
// Degraded mode under injected filesystem faults: every failure is a miss or
// a skipped store, never an exception out of get/put.

TEST(ResultCache, EnospcOnStoreDegradesThenHeals) {
  const std::string dir = tmp_dir("enospc");
  ScriptedFaults faults;
  faults.fail_name = "write";
  faults.fail_errno = ENOSPC;
  faults.fail_count = -1;  // disk stays full

  cache::ResultCache sick(quick_cfg(dir), &faults);
  sick.put("pt", "payload");
  EXPECT_EQ(sick.stats().store_errors, 1u);
  EXPECT_EQ(sick.stats().stores, 0u);
  EXPECT_FALSE(fs::exists(sick.entry_path("pt")));
  EXPECT_FALSE(fs::exists(sick.intent_path("pt"))) << "failed store left a decoy intent";

  cache::ResultCache healthy(quick_cfg(dir));  // space came back
  healthy.put("pt", "payload");
  std::string payload;
  ASSERT_TRUE(healthy.get("pt", &payload));
  EXPECT_EQ(payload, "payload");
}

TEST(ResultCache, TransientEioOnReadRetriesWithinBoundThenHits) {
  const std::string dir = tmp_dir("eio_read");
  cache::ResultCache writer(quick_cfg(dir));
  writer.put("pt", "payload");

  ScriptedFaults faults;
  faults.fail_name = "open";
  faults.fail_errno = EIO;
  faults.fail_count = 2;  // two transient failures, then clean
  cache::ResultCache reader(quick_cfg(dir), &faults);

  std::string payload;
  ASSERT_TRUE(reader.get("pt", &payload));
  EXPECT_EQ(payload, "payload");
  EXPECT_EQ(reader.stats().read_errors, 2u);

  // A persistent failure exhausts the bounded retries and degrades to a miss.
  faults.fail_count = -1;
  EXPECT_FALSE(reader.get("pt", &payload));
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(ResultCache, ShortWritesStillCommitCompleteEntries) {
  const std::string dir = tmp_dir("shortwrite");
  ScriptedFaults faults;
  faults.clamp = 3;  // every write(2) lands at most 3 bytes
  cache::ResultCache rc(quick_cfg(dir), &faults);
  const std::string payload_in(300, 'x');
  rc.put("pt", payload_in);
  EXPECT_EQ(rc.stats().stores, 1u);

  cache::ResultCache reader(quick_cfg(dir));
  std::string payload;
  ASSERT_TRUE(reader.get("pt", &payload));
  EXPECT_EQ(payload, payload_in);
}

TEST(ResultCache, SeededBitflipInjectorForcesQuarantine) {
  const std::string dir = tmp_dir("flip_inject");
  cache::ResultCache writer(quick_cfg(dir));
  writer.put("pt", "payload");

  util::FsFaultConfig fc;
  fc.enabled = true;
  fc.seed = 7;
  fc.bitflip_prob = 1.0;
  util::FsFaultInjector inject(fc);
  cache::ResultCache reader(quick_cfg(dir), &inject);

  std::string payload;
  EXPECT_FALSE(reader.get("pt", &payload));
  EXPECT_EQ(reader.stats().quarantined, 1u);
  EXPECT_GE(inject.stats().bitflips, 1u);
}

// ---------------------------------------------------------------------------
// Offline repair: scan / fsck / gc.

TEST(CacheMaintenance, FsckQuarantinesCorruptionAndReclaimsDeadWriters) {
  const std::string dir = tmp_dir("fsck");
  cache::ResultCache rc(quick_cfg(dir));
  rc.put("good", "payload");

  const std::string shard = dir + "/objects/ab";
  fs::create_directories(shard);
  spew(shard + "/ab00000000000000.entry", "garbage, not a frame");
  spew(shard + "/ab00000000000000.entry.tmp.4242.0", "half a commit");
  spew(dir + "/intents/ab00000000000000.intent", "4242 dead\n");

  const cache::CacheScan before = cache::scan_cache(dir);
  EXPECT_EQ(before.entries.size(), 2u);
  EXPECT_EQ(before.corrupt, 1u);
  EXPECT_EQ(before.tmp_orphans.size(), 1u);
  EXPECT_EQ(before.intents.size(), 1u);

  // No writer holds ab00000000000000.lock, so everything is reclaimable
  // regardless of age.
  const cache::FsckResult r = cache::fsck_cache(dir, /*lease_seconds=*/300.0);
  EXPECT_EQ(r.entries_quarantined, 1u);
  EXPECT_EQ(r.tmp_quarantined, 1u);
  EXPECT_EQ(r.intents_removed, 1u);

  const cache::CacheScan after = cache::scan_cache(dir);
  EXPECT_EQ(after.entries.size(), 1u);
  EXPECT_EQ(after.corrupt, 0u);
  EXPECT_TRUE(after.tmp_orphans.empty());
  EXPECT_TRUE(after.intents.empty());
  EXPECT_EQ(after.quarantined.size(), 2u);

  std::string payload;
  ASSERT_TRUE(rc.get("good", &payload));  // repair never touches valid entries
}

TEST(CacheMaintenance, FsckSparesALiveWriterWithinItsLease) {
  const std::string dir = tmp_dir("fsck_live");
  cache::ResultCache rc(quick_cfg(dir));

  const std::string shard = dir + "/objects/cd";
  fs::create_directories(shard);
  fs::create_directories(dir + "/intents");
  spew(shard + "/cd00000000000000.entry.tmp.1.0", "in flight");
  spew(dir + "/intents/cd00000000000000.intent", "live\n");

  const int fd =
      ::open((shard + "/cd00000000000000.lock").c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);  // the writer is alive

  const cache::FsckResult held = cache::fsck_cache(dir, /*lease_seconds=*/300.0);
  EXPECT_EQ(held.tmp_quarantined, 0u);
  EXPECT_EQ(held.intents_removed, 0u);

  // A wedged writer forfeits after the lease even while holding the lock.
  const cache::FsckResult expired = cache::fsck_cache(dir, /*lease_seconds=*/-1.0);
  EXPECT_EQ(expired.tmp_quarantined, 1u);
  EXPECT_EQ(expired.intents_removed, 1u);
  ::close(fd);
}

TEST(CacheMaintenance, GcRemovesOnlyEntriesPastMaxAge) {
  const std::string dir = tmp_dir("gc");
  cache::ResultCache rc(quick_cfg(dir));
  rc.put("a", "1");
  rc.put("b", "2");
  spew(dir + "/quarantine/old.entry.1.0", "parked");

  EXPECT_EQ(cache::gc_cache(dir, /*max_age_seconds=*/3600.0), 0u);
  EXPECT_EQ(cache::scan_cache(dir).entries.size(), 2u);

  EXPECT_EQ(cache::gc_cache(dir, /*max_age_seconds=*/-1.0), 3u);
  const cache::CacheScan after = cache::scan_cache(dir);
  EXPECT_TRUE(after.entries.empty());
  EXPECT_TRUE(after.quarantined.empty());
}

// ---------------------------------------------------------------------------
// FsFaultConfig parsing (the MEMSCHED_FSFAULT surface) and injector
// determinism.

TEST(FsFaultConfig, ParsesSpecStringsAndRejectsBadOnes) {
  const util::FsFaultConfig off = util::FsFaultConfig::parse(nullptr);
  EXPECT_FALSE(off.enabled);
  EXPECT_FALSE(util::FsFaultConfig::parse("").enabled);

  const util::FsFaultConfig c =
      util::FsFaultConfig::parse("seed=7,short_write=0.5,enospc=0.25,eio=0.1,bitflip=1");
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_DOUBLE_EQ(c.short_write_prob, 0.5);
  EXPECT_DOUBLE_EQ(c.enospc_prob, 0.25);
  EXPECT_DOUBLE_EQ(c.eio_prob, 0.1);
  EXPECT_DOUBLE_EQ(c.bitflip_prob, 1.0);

  EXPECT_THROW((void)util::FsFaultConfig::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)util::FsFaultConfig::parse("enospc=2.0"), std::invalid_argument);
  EXPECT_THROW((void)util::FsFaultConfig::parse("eio=notanumber"), std::invalid_argument);
  EXPECT_THROW((void)util::FsFaultConfig::parse("seed"), std::invalid_argument);
}

TEST(FsFaultInjector, SameSeedSameDecisionSequence) {
  util::FsFaultConfig fc;
  fc.enabled = true;
  fc.seed = 99;
  fc.short_write_prob = 0.5;
  fc.enospc_prob = 0.3;
  fc.eio_prob = 0.3;
  fc.bitflip_prob = 0.5;

  const auto run = [&fc] {
    util::FsFaultInjector inj(fc);
    std::ostringstream log;
    std::uint8_t image[16] = {0};
    for (int i = 0; i < 64; ++i) {
      log << inj.clamp_write(4096) << '/' << inj.fail_op("write") << '/'
          << inj.fail_op("open") << '/';
      inj.corrupt_read(image, sizeof image);
    }
    for (unsigned char b : image) log << static_cast<int>(b) << ',';
    return log.str();
  };
  EXPECT_EQ(run(), run());

  fc.seed = 100;
  util::FsFaultInjector other(fc);
  std::ostringstream log;
  for (int i = 0; i < 64; ++i) log << other.clamp_write(4096) << '/';
  // Different seed, different decisions (probabilistically certain).
  EXPECT_NE(run().substr(0, log.str().size()), log.str());
}

TEST(FsFaultInjector, ShortWritesAlwaysMakeProgress) {
  util::FsFaultConfig fc;
  fc.enabled = true;
  fc.seed = 3;
  fc.short_write_prob = 1.0;
  util::FsFaultInjector inj(fc);
  for (int i = 0; i < 256; ++i) {
    const std::size_t n = inj.clamp_write(2);
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 2u);
  }
  EXPECT_EQ(inj.clamp_write(1), 1u);  // nothing to shorten
}

// ---------------------------------------------------------------------------
// Retry backoff: the one schedule every harness retry loop shares. Pure
// function of (base, cap, attempt) — exercised here under fake time.

TEST(Backoff, ExponentialScheduleIsDeterministicAndCapped) {
  const util::Backoff b{0.5, 60.0};
  EXPECT_DOUBLE_EQ(b.delay_seconds(1), 0.5);
  EXPECT_DOUBLE_EQ(b.delay_seconds(2), 1.0);
  EXPECT_DOUBLE_EQ(b.delay_seconds(3), 2.0);
  EXPECT_DOUBLE_EQ(b.delay_seconds(7), 32.0);
  EXPECT_DOUBLE_EQ(b.delay_seconds(8), 60.0);   // 64 would overshoot the cap
  EXPECT_DOUBLE_EQ(b.delay_seconds(200), 60.0); // stays capped forever

  const util::Backoff disabled{0.0, 60.0};
  for (std::uint32_t a = 0; a < 10; ++a) EXPECT_DOUBLE_EQ(disabled.delay_seconds(a), 0.0);
}

TEST(Backoff, ReadyAtAdvancesFakeTimeWithoutSleeping) {
  const util::Backoff b{0.25, 60.0};
  const util::MonotonicTime epoch{};  // fake clock: no host-time read at all
  EXPECT_DOUBLE_EQ(util::seconds_between(epoch, b.ready_at(epoch, 1)), 0.25);
  EXPECT_DOUBLE_EQ(util::seconds_between(epoch, b.ready_at(epoch, 3)), 1.0);
  // Deterministic in `now`: shifting the failure instant shifts the deadline
  // by exactly the same amount.
  const util::MonotonicTime later = epoch + util::seconds_to_duration(5.0);
  EXPECT_DOUBLE_EQ(util::seconds_between(b.ready_at(epoch, 2), b.ready_at(later, 2)),
                   5.0);
}

// ---------------------------------------------------------------------------
// atomic_file error surfacing: which op failed, with which errno — the
// classification the cache's degraded modes are built on.

TEST(AtomicFile, ErrorsCarryFailingOpAndErrno) {
  const std::string dir = tmp_dir("atomic_err");
  fs::create_directories(dir);
  const std::string target = dir + "/file.bin";
  spew(target, "previous contents");

  const struct {
    const char* op_name;
    int err;
    util::FileOp op;
  } cases[] = {
      {"open", EACCES, util::FileOp::kOpen},
      {"write", ENOSPC, util::FileOp::kWrite},
      {"fsync", ENOSPC, util::FileOp::kFsync},
      {"close", EIO, util::FileOp::kClose},
      {"rename", EIO, util::FileOp::kRename},
  };
  for (const auto& c : cases) {
    ScriptedFaults faults;
    faults.fail_name = c.op_name;
    faults.fail_errno = c.err;
    faults.fail_count = 1;
    util::ScopedFsFaults armed(&faults);
    try {
      util::atomic_write_file(target, "new contents");
      FAIL() << "no throw for failing op " << c.op_name;
    } catch (const util::AtomicFileError& e) {
      EXPECT_EQ(e.op(), c.op) << c.op_name;
      EXPECT_EQ(e.errno_value(), c.err) << c.op_name;
      EXPECT_NE(std::string(e.what()).find(c.op_name), std::string::npos)
          << "message must name the op: " << e.what();
    }
    // Failure is atomic too: target untouched, no tmp litter.
    EXPECT_EQ(slurp(target), "previous contents") << c.op_name;
    std::size_t tmp_files = 0;
    for (const auto& de : fs::directory_iterator(dir)) {
      if (de.path().filename().string().find(".tmp.") != std::string::npos) ++tmp_files;
    }
    EXPECT_EQ(tmp_files, 0u) << c.op_name;
  }

  util::atomic_write_file(target, "new contents");  // faults gone: succeeds
  EXPECT_EQ(slurp(target), "new contents");
}

TEST(AtomicFile, FsyncAndCloseFailuresAreDistinct) {
  // The regression this pins: collapsing fsync/close failures into one
  // generic error loses the "durability lost" vs "writeback failed"
  // distinction the cache diagnostics rely on.
  EXPECT_STREQ(util::file_op_name(util::FileOp::kFsync), "fsync");
  EXPECT_STREQ(util::file_op_name(util::FileOp::kClose), "close");
  EXPECT_STREQ(util::file_op_name(util::FileOp::kOpen), "open");
  EXPECT_STREQ(util::file_op_name(util::FileOp::kWrite), "write");
  EXPECT_STREQ(util::file_op_name(util::FileOp::kRename), "rename");
}

TEST(AtomicFile, ShortWriteClampLoopsToCompletion) {
  const std::string dir = tmp_dir("atomic_short");
  fs::create_directories(dir);
  ScriptedFaults faults;
  faults.clamp = 5;
  util::ScopedFsFaults armed(&faults);
  const std::string big(4096, 'q');
  util::atomic_write_file(dir + "/big.bin", big);
  EXPECT_EQ(slurp(dir + "/big.bin"), big);
}

// ---------------------------------------------------------------------------
// Orchestrator integration: the byte-parity contract (warm == cold at any
// pool width) and never-fail degradation.

namespace {

harness::PointSpec body_point(const std::string& name, double value) {
  harness::PointSpec p;
  p.name = name;
  p.body = [value] {
    util::Json j = util::Json::object();
    j["value"] = value;
    return j;
  };
  return p;
}

std::vector<harness::PointSpec> four_points() {
  return {body_point("pt-0", 0.5), body_point("pt-1", 1.5), body_point("pt-2", 2.5),
          body_point("pt-3", 3.5)};
}

harness::OrchestratorConfig sweep_cfg(const std::string& tag, const std::string& cache) {
  harness::OrchestratorConfig oc;
  oc.work_dir = tmp_dir("work_" + tag);
  oc.manifest_path = tmp_dir("m_" + tag) + ".manifest";
  std::remove(oc.manifest_path.c_str());  // tmp_dir only clears the dir path
  std::remove((oc.manifest_path + ".timing.json").c_str());
  oc.fingerprint = "cache-parity-sweep";
  oc.cache_dir = cache;
  oc.verbose = false;
  oc.timeout_seconds = 60.0;
  return oc;
}

}  // namespace

TEST(OrchestratorCache, WarmRunsAreByteIdenticalToColdAtAnyWidth) {
  const std::string cache = tmp_dir("parity_store");

  harness::OrchestratorConfig cold_cfg = sweep_cfg("cold", cache);
  harness::Orchestrator cold(cold_cfg);
  const harness::SweepSummary s0 = cold.run(four_points());
  EXPECT_TRUE(s0.complete());
  EXPECT_EQ(s0.cache_hits, 0u);
  ASSERT_NE(cold.result_cache(), nullptr);
  EXPECT_EQ(cold.result_cache()->stats().stores, 4u);
  const std::string cold_manifest = slurp(cold_cfg.manifest_path);
  const std::string cold_report = cold.report().dump(2);

  harness::OrchestratorConfig warm1_cfg = sweep_cfg("warm1", cache);
  harness::Orchestrator warm1(warm1_cfg);
  const harness::SweepSummary s1 = warm1.run(four_points());
  EXPECT_TRUE(s1.complete());
  EXPECT_EQ(s1.cache_hits, 4u);
  EXPECT_EQ(s1.executed, 0u) << "warm run must not fork workers";

  harness::OrchestratorConfig warm4_cfg = sweep_cfg("warm4", cache);
  warm4_cfg.jobs = 4;
  harness::Orchestrator warm4(warm4_cfg);
  const harness::SweepSummary s4 = warm4.run(four_points());
  EXPECT_TRUE(s4.complete());
  EXPECT_EQ(s4.cache_hits, 4u);

  EXPECT_EQ(slurp(warm1_cfg.manifest_path), cold_manifest);
  EXPECT_EQ(slurp(warm4_cfg.manifest_path), cold_manifest);
  EXPECT_EQ(warm1.report().dump(2), cold_report);
  EXPECT_EQ(warm4.report().dump(2), cold_report);
}

TEST(OrchestratorCache, ManifestResumeTakesPrecedenceOverCache) {
  const std::string cache = tmp_dir("resume_store");
  harness::OrchestratorConfig cfg = sweep_cfg("resume", cache);
  harness::Orchestrator first(cfg);
  EXPECT_TRUE(first.run(four_points()).complete());

  // Same manifest still on disk: records replay as `resumed`, not as cache
  // hits — the cache only fills the gap when the manifest is gone.
  harness::Orchestrator again(cfg);
  const harness::SweepSummary s = again.run(four_points());
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.resumed, 4u);
  EXPECT_EQ(s.cache_hits, 0u);
}

TEST(OrchestratorCache, ExecPointsAreNeverCached) {
  const std::string cache = tmp_dir("exec_store");
  harness::PointSpec p;
  p.name = "exec-pt";
  p.argv = {"/bin/sh", "-c", "exit 0"};

  harness::OrchestratorConfig cfg = sweep_cfg("exec", cache);
  harness::Orchestrator orch(cfg);
  EXPECT_EQ(orch.run({p}).ok, 1u);
  ASSERT_NE(orch.result_cache(), nullptr);
  EXPECT_EQ(orch.result_cache()->stats().stores, 0u);

  harness::OrchestratorConfig warm_cfg = sweep_cfg("exec_warm", cache);
  harness::Orchestrator warm(warm_cfg);
  const harness::SweepSummary s = warm.run({p});
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.executed, 1u);  // really re-ran the command
}

TEST(OrchestratorCache, FaultedCacheDegradesToColdSweepNotFailure) {
  const std::string cache = tmp_dir("degraded_store");
  ScriptedFaults faults;
  faults.fail_name = "write";
  faults.fail_errno = ENOSPC;
  faults.fail_count = -1;

  harness::OrchestratorConfig cfg = sweep_cfg("degraded", cache);
  cfg.cache_faults = &faults;
  harness::Orchestrator orch(cfg);
  const harness::SweepSummary s = orch.run(four_points());
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.ok, 4u);
  EXPECT_EQ(s.cache_hits, 0u);
  ASSERT_NE(orch.result_cache(), nullptr);
  EXPECT_EQ(orch.result_cache()->stats().stores, 0u);
  EXPECT_EQ(orch.result_cache()->stats().store_errors, 4u);

  // The manifest writer was outside the blast radius: the sweep checkpointed
  // normally and resumes cleanly.
  harness::Orchestrator resume(cfg);
  const harness::SweepSummary s2 = resume.run(four_points());
  EXPECT_EQ(s2.resumed, 4u);
}
