// Checkpoint/restore tests.
//
// The contract (src/ckpt): a run killed at ANY tick and resumed from its
// latest valid snapshot produces a byte-identical final JSON report to an
// uninterrupted run, under both engines, with fault injection on, for
// stateful schedulers. A snapshot that is truncated, bit-flipped, or written
// by a different configuration/engine/version is rejected with a clean
// SnapshotError-driven fallback to cycle zero — never UB (these tests also
// run under ASan/UBSan in CI).
//
// MEMSCHED_VERIFY=1 is set by the ctest harness and turns the invariant
// auditor on by default; checkpointing is rejected alongside the auditor
// (its shadow state is not serialized), so every config here sets
// audit.enabled = false explicitly — except the test that asserts the
// rejection itself.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/policy.hpp"
#include "ckpt/signal.hpp"
#include "ckpt/snapshot.hpp"
#include "core/scheduler_factory.hpp"
#include "sim/json_report.hpp"
#include "sim/system.hpp"
#include "sim/workloads.hpp"
#include "util/fs_fault.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace memsched {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "memsched_ckpt_" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Writer/Reader format layer.
// ---------------------------------------------------------------------------

TEST(Snapshot, Crc32KnownVector) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(ckpt::crc32("", 0), 0u);
}

ckpt::Writer sample_writer() {
  ckpt::Writer w;
  w.begin_section("alpha");
  w.put_u8(0xAB);
  w.put_bool(true);
  w.put_bool(false);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(-0.0);
  w.put_f64(1.0 / 3.0);
  w.put_str("");
  w.put_str("hello \xF0\x9F\x92\xBE world");
  w.put_u64_vec({});
  w.put_u64_vec({1, 2, ~0ull});
  w.begin_section("beta");
  util::Xoshiro256 rng(7);
  rng.next();
  w.put_rng(rng);
  util::RunningStat st;
  st.add(3.25);
  st.add(-1.5);
  w.put_stat(st);
  util::Histogram h(2.0, 4);
  h.add(1.0);
  h.add(3.0);
  h.add(99.0);
  w.put_hist(h);
  return w;
}

TEST(Snapshot, WriterReaderRoundtrip) {
  const std::string path = tmp_path("roundtrip.ckpt");
  sample_writer().save(path, "fp-roundtrip");

  ckpt::Reader r(path, "fp-roundtrip");
  EXPECT_TRUE(r.has_section("alpha"));
  EXPECT_TRUE(r.has_section("beta"));
  EXPECT_FALSE(r.has_section("gamma"));

  r.open_section("alpha");
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  const double neg_zero = r.get_f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.get_f64(), 1.0 / 3.0);
  EXPECT_EQ(r.get_str(), "");
  EXPECT_EQ(r.get_str(), "hello \xF0\x9F\x92\xBE world");
  EXPECT_TRUE(r.get_u64_vec().empty());
  EXPECT_EQ(r.get_u64_vec(), (std::vector<std::uint64_t>{1, 2, ~0ull}));
  r.close_section();

  r.open_section("beta");
  util::Xoshiro256 want(7), got(1);
  want.next();
  r.get_rng(got);
  EXPECT_EQ(got.next(), want.next());
  util::RunningStat st;
  r.get_stat(st);
  EXPECT_EQ(st.count(), 2u);
  EXPECT_EQ(st.sum(), 1.75);
  EXPECT_EQ(st.min(), -1.5);
  EXPECT_EQ(st.max(), 3.25);
  util::Histogram h(2.0, 4);
  r.get_hist(h);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  r.close_section();
}

TEST(Snapshot, UnderReadIsSchemaMismatch) {
  const std::string path = tmp_path("underread.ckpt");
  ckpt::Writer w;
  w.begin_section("s");
  w.put_u64(1);
  w.put_u64(2);
  w.save(path, "fp");
  ckpt::Reader r(path, "fp");
  r.open_section("s");
  EXPECT_EQ(r.get_u64(), 1u);
  EXPECT_THROW(r.close_section(), ckpt::SnapshotError);  // 8 bytes unread
}

TEST(Snapshot, OverReadThrowsNotUB) {
  const std::string path = tmp_path("overread.ckpt");
  ckpt::Writer w;
  w.begin_section("s");
  w.put_u32(5);
  w.save(path, "fp");
  ckpt::Reader r(path, "fp");
  r.open_section("s");
  EXPECT_EQ(r.get_u32(), 5u);
  EXPECT_THROW(r.get_u64(), ckpt::SnapshotError);
}

TEST(Snapshot, FingerprintMismatchRejected) {
  const std::string path = tmp_path("fp_mismatch.ckpt");
  sample_writer().save(path, "fp-A");
  EXPECT_NO_THROW(ckpt::Reader(path, "fp-A"));
  EXPECT_THROW(ckpt::Reader(path, "fp-B"), ckpt::SnapshotError);
}

TEST(Snapshot, BadMagicRejected) {
  const std::string path = tmp_path("bad_magic.ckpt");
  sample_writer().save(path, "fp");
  auto bytes = read_file(path);
  bytes[0] ^= 0xFF;
  write_file(path, bytes);
  EXPECT_THROW(ckpt::Reader(path, "fp"), ckpt::SnapshotError);
}

TEST(Snapshot, WrongVersionRejected) {
  const std::string path = tmp_path("bad_version.ckpt");
  sample_writer().save(path, "fp");
  auto bytes = read_file(path);
  bytes[8] = static_cast<std::uint8_t>(bytes[8] + 1);  // version u32 LSB
  write_file(path, bytes);
  EXPECT_THROW(ckpt::Reader(path, "fp"), ckpt::SnapshotError);
}

TEST(Snapshot, MissingFileRejected) {
  EXPECT_THROW(ckpt::Reader(tmp_path("does_not_exist.ckpt"), "fp"),
               ckpt::SnapshotError);
}

TEST(Snapshot, EveryTruncationRejected) {
  const std::string path = tmp_path("trunc_src.ckpt");
  sample_writer().save(path, "fp");
  const auto bytes = read_file(path);
  ASSERT_GT(bytes.size(), 16u);
  const std::string cut = tmp_path("trunc_cut.ckpt");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(cut, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)});
    EXPECT_THROW(ckpt::Reader(cut, "fp"), ckpt::SnapshotError) << "prefix " << len;
  }
}

TEST(Snapshot, EveryBitFlipSafe) {
  // Flip one bit in every byte of a valid snapshot. Each flip must either be
  // rejected (SnapshotError — the expected outcome for payload, length and
  // header bytes) or, for the few unprotected bytes (section *names* carry no
  // CRC), yield a reader whose typed reads still fail cleanly. No other
  // exception type, no crash, no UB (sanitizer jobs re-run this test).
  const std::string path = tmp_path("flip_src.ckpt");
  sample_writer().save(path, "fp");
  const auto bytes = read_file(path);
  const std::string flipped = tmp_path("flip_cur.ckpt");
  std::size_t detected = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto mut = bytes;
    mut[i] ^= 0x01;
    write_file(flipped, mut);
    try {
      ckpt::Reader r(flipped, "fp");
      if (r.has_section("alpha")) {
        r.open_section("alpha");
        r.get_u8();
        r.close_section();  // partial consumption throws; that is the point
      }
    } catch (const ckpt::SnapshotError&) {
      ++detected;
    }
    // Anything else (std::bad_alloc, segfault, UBSan trap) fails the test.
  }
  // Everything except the section-name bytes is CRC- or length-protected.
  EXPECT_GE(detected, bytes.size() - 16);
}

TEST(Snapshot, HugeVectorLengthIsSnapshotError) {
  // len * 8 wraps to 8 for len = 2^61 + 1; the guard must not multiply, or
  // std::vector(len) escapes as std::length_error past run()'s fallback.
  const std::string path = tmp_path("huge_vec.ckpt");
  ckpt::Writer w;
  w.begin_section("s");
  w.put_u64((std::uint64_t{1} << 61) + 1);
  w.save(path, "fp");
  ckpt::Reader r(path, "fp");
  r.open_section("s");
  EXPECT_THROW(r.get_u64_vec(), ckpt::SnapshotError);
}

TEST(Snapshot, TrailingBytesRejected) {
  const std::string path = tmp_path("trailing.ckpt");
  sample_writer().save(path, "fp");
  auto bytes = read_file(path);
  bytes.insert(bytes.end(), 7, 0x5A);  // no CRC covers these
  write_file(path, bytes);
  try {
    ckpt::Reader r(path, "fp");
    ADD_FAILURE() << "a snapshot with trailing bytes was accepted";
  } catch (const ckpt::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("7 trailing byte"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Write path: slicing-by-8 CRC and the reused per-thread buffer.
// ---------------------------------------------------------------------------

/// CRC-32 by its definition, one bit at a time: the oracle for ckpt::crc32.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xffffffffU;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffU;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

TEST(Snapshot, Crc32MatchesBitwiseReference) {
  const auto buf = random_bytes(1'300'000, 11);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(ckpt::crc32(buf.data() + off, len), crc32_bitwise(buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
  EXPECT_EQ(ckpt::crc32(buf.data(), buf.size()), crc32_bitwise(buf.data(), buf.size()));
}

/// The snapshot layout of snapshot.hpp, spelled out field by field.
std::vector<std::uint8_t> reference_image(
    const std::string& fp,
    const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>& sections) {
  std::vector<std::uint8_t> out;
  auto put = [&out](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out.insert(out.end(), b, b + n);
  };
  auto put_u32 = [&put](std::uint32_t v) { put(&v, sizeof v); };
  const std::uint64_t magic = ckpt::kMagic;
  put(&magic, sizeof magic);
  put_u32(ckpt::kVersion);
  put_u32(static_cast<std::uint32_t>(fp.size()));
  put(fp.data(), fp.size());
  put_u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& [name, payload] : sections) {
    put_u32(static_cast<std::uint32_t>(name.size()));
    put(name.data(), name.size());
    const std::uint64_t len = payload.size();
    put(&len, sizeof len);
    put_u32(crc32_bitwise(payload.data(), payload.size()));
    put(payload.data(), payload.size());
  }
  return out;
}

void save_small(const std::string& path, const std::string& fp) {
  ckpt::Writer w;
  w.begin_section("a");
  w.put_u32(7);
  w.put_str("xy");
  w.begin_section("b");
  w.put_u64_vec({1, 2});
  w.save(path, fp);
}

std::vector<std::uint8_t> small_reference(const std::string& fp) {
  std::vector<std::uint8_t> a = {7, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 'x', 'y'};
  std::vector<std::uint8_t> b(24, 0);
  b[0] = 2;   // length
  b[8] = 1;   // element 0
  b[16] = 2;  // element 1
  return reference_image(fp, {{"a", a}, {"b", b}});
}

TEST(Snapshot, ReusedBufferWritesFreshWriterBytes) {
  // The thread's buffer first holds a 2.4 MB snapshot whose fingerprint
  // overflows the header headroom; a small snapshot written next must not
  // carry any of those bytes.
  const std::string fp = "fp-small";
  const std::string fresh = tmp_path("fresh_small.ckpt");
  std::thread([&] { save_small(fresh, fp); }).join();  // a new thread: no spare yet
  {
    ckpt::Writer big;
    big.begin_section("a");
    for (std::uint64_t i = 0; i < 300'000; ++i) big.put_u64(~i);
    big.save(tmp_path("big.ckpt"), std::string(10'000, 'L'));
  }
  const std::string reused = tmp_path("reused_small.ckpt");
  save_small(reused, fp);
  EXPECT_EQ(read_file(reused), read_file(fresh));
  EXPECT_EQ(read_file(reused), small_reference(fp));

  const std::string long_fp(10'000, 'L');
  save_small(reused, long_fp);
  EXPECT_EQ(read_file(reused), small_reference(long_fp));
  ckpt::Reader r(tmp_path("big.ckpt"), long_fp);
  r.open_section("a");
  for (std::uint64_t i = 0; i < 300'000; ++i) ASSERT_EQ(r.get_u64(), ~i);
  r.close_section();
}

TEST(Snapshot, TwoThreadsSaveConcurrently) {
  auto worker = [](std::uint64_t id) {
    const std::string path = tmp_path("thread_" + std::to_string(id) + ".ckpt");
    const std::string fp = "fp-" + std::to_string(id);
    try {
      for (std::uint64_t round = 0; round < 8; ++round) {
        const std::uint64_t base = (id << 32) | (round << 20);
        ckpt::Writer w;
        w.begin_section("data");
        for (std::uint64_t i = 0; i < 40'000; ++i) w.put_u64(base + i);
        w.save(path, fp);
        ckpt::Reader r(path, fp);
        r.open_section("data");
        for (std::uint64_t i = 0; i < 40'000; ++i) {
          if (r.get_u64() != base + i) return false;
        }
        r.close_section();
      }
    } catch (const std::exception&) {
      return false;
    }
    return true;
  };
  bool ok[2] = {false, false};
  std::thread t0([&] { ok[0] = worker(0); });
  std::thread t1([&] { ok[1] = worker(1); });
  t0.join();
  t1.join();
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
}

// ---------------------------------------------------------------------------
// Closed-loop kill-and-resume differential.
// ---------------------------------------------------------------------------

sched::SchedulerPtr make_sched(const std::string& name, std::uint32_t cores) {
  core::SchedulerArgs args;
  args.core_count = cores;
  std::vector<double> me, ipc;
  for (std::uint32_t c = 0; c < cores; ++c) {
    me.push_back(9.0 / (1.0 + static_cast<double>(c)));
    ipc.push_back(2.0 / (1.0 + 0.2 * static_cast<double>(c)));
  }
  args.me = core::MeTable(me);
  args.ipc_single = ipc;
  return core::make_scheduler(name, args);
}

constexpr std::uint64_t kTarget = 20'000;
constexpr std::uint64_t kWarmup = 4'000;

sim::SystemConfig base_config(sim::Engine engine, std::uint32_t cores, bool fault) {
  sim::SystemConfig cfg;
  cfg.audit.enabled = false;  // MEMSCHED_VERIFY=1 would default it on
  cfg.engine = engine;
  cfg.cores = cores;
  if (fault) {
    // Delay/dup/stall only: a *dropped* read would park a closed-loop core
    // forever (the load never returns) and trip the livelock watchdog.
    cfg.fault.enabled = true;
    cfg.fault.seed = 99;
    cfg.fault.dup_prob = 0.01;
    cfg.fault.delay_prob = 0.03;
    cfg.fault.stall_prob = 0.001;
  }
  return cfg;
}

/// Fresh system per attempt — resume always happens in a new process image.
std::string run_once(const sim::SystemConfig& cfg, const sim::Workload& w,
                     const std::string& scheme,
                     const ckpt::CheckpointPolicy& policy = {}) {
  const sched::SchedulerPtr s = make_sched(scheme, w.cores());
  sim::MultiCoreSystem sys(cfg, w.apps(), *s, 42);
  return sim::to_json(sys.run(kTarget, kWarmup, Tick{1} << 32, policy)).dump();
}

/// Kill (emulated SIGKILL: abort WITHOUT a stop-snapshot) at each tick in
/// turn, resuming between kills, then finish and compare against a pristine
/// uninterrupted run.
void expect_kill_resume_identical(sim::Engine engine, const std::string& scheme,
                                  const std::string& workload, bool fault,
                                  const std::string& tag) {
  const sim::Workload w = sim::workload_by_name(workload);
  const sim::SystemConfig cfg = base_config(engine, w.cores(), fault);
  const std::string baseline = run_once(cfg, w, scheme);

  const std::string path = tmp_path("kill_" + tag + ".ckpt");
  std::remove(path.c_str());
  ckpt::CheckpointPolicy p;
  p.path = path;
  p.interval_ticks = 1'000;
  p.save_on_stop = false;  // die like SIGKILL: no parting snapshot
  // Randomized-ish, deliberately interval-unaligned kill points (the runs
  // here span roughly 2-4k ticks; later kills may land after completion,
  // which exercises the finished-snapshot path too).
  for (const Tick kill : {Tick{1'217}, Tick{1'537}, Tick{2'011}}) {
    ckpt::CheckpointPolicy kp = p;
    kp.stop_at_tick = kill;
    try {
      run_once(cfg, w, scheme, kp);
    } catch (const ckpt::CheckpointStop&) {
      // expected: the run died mid-flight
    }
  }
  ckpt::ResumeInfo info;
  ckpt::CheckpointPolicy fin = p;
  fin.resume_info = &info;
  EXPECT_EQ(run_once(cfg, w, scheme, fin), baseline)
      << "resumed run diverged: " << tag;
  EXPECT_TRUE(info.attempted);
  EXPECT_TRUE(info.resumed) << info.error;
}

using KillCase = std::tuple<sim::Engine, std::string, std::string, bool>;

class KillResume : public ::testing::TestWithParam<KillCase> {};

TEST_P(KillResume, ByteIdenticalReport) {
  const auto& [engine, scheme, workload, fault] = GetParam();
  std::string tag = std::string(engine == sim::Engine::kCycle ? "cyc" : "skp") +
                    "_" + scheme + "_" + workload + (fault ? "_f" : "");
  for (char& c : tag)
    if (c == '-' || c == '/') c = '_';
  expect_kill_resume_identical(engine, scheme, workload, fault, tag);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KillResume,
    ::testing::Values(
        // Both engines x a stateless and the stateful paper schedulers, and
        // fault injection on (the injector RNG must also survive a kill).
        KillCase(sim::Engine::kCycle, "HF-RF", "2MEM-1", false),
        KillCase(sim::Engine::kSkip, "HF-RF", "2MEM-1", false),
        KillCase(sim::Engine::kCycle, "ME-LREQ", "4MIX-1", false),
        KillCase(sim::Engine::kSkip, "ME-LREQ", "4MIX-1", false),
        KillCase(sim::Engine::kCycle, "PAR-BS", "2MIX-1", false),
        KillCase(sim::Engine::kSkip, "PAR-BS", "2MIX-1", false),
        KillCase(sim::Engine::kCycle, "STFM", "2MEM-2", false),
        KillCase(sim::Engine::kSkip, "STFM", "2MEM-2", false),
        // Epoch-aware zoo: interval counters + blacklist/cluster/score state
        // must survive a mid-interval SIGKILL (controller section v2).
        KillCase(sim::Engine::kCycle, "BLISS", "4MIX-1", false),
        KillCase(sim::Engine::kSkip, "BLISS", "4MIX-1", false),
        KillCase(sim::Engine::kCycle, "TCM", "4MIX-1", false),
        KillCase(sim::Engine::kSkip, "TCM", "4MIX-1", false),
        KillCase(sim::Engine::kCycle, "CADS", "2MEM-2", false),
        KillCase(sim::Engine::kSkip, "CADS", "2MEM-2", false),
        KillCase(sim::Engine::kCycle, "HF-RF", "2MEM-1", true),
        KillCase(sim::Engine::kSkip, "ME-LREQ", "2MEM-1", true)),
    [](const auto& pi) {
      std::string n =
          std::string(std::get<0>(pi.param) == sim::Engine::kCycle ? "Cycle" : "Skip") +
          "_" + std::get<1>(pi.param) + "_" + std::get<2>(pi.param) +
          (std::get<3>(pi.param) ? "_Fault" : "");
      for (char& c : n)
        if (c == '-' || c == '/') c = '_';
      return n;
    });

TEST(Ckpt, GracefulStopSavesAndResumes) {
  // SIGTERM path: the stop snapshot is written at the exact stop tick, so the
  // resumed run replays nothing and still matches the baseline byte for byte.
  const sim::Workload w = sim::workload_by_name("2MEM-1");
  const sim::SystemConfig cfg = base_config(sim::Engine::kSkip, w.cores(), false);
  const std::string baseline = run_once(cfg, w, "HF-RF");

  const std::string path = tmp_path("graceful.ckpt");
  std::remove(path.c_str());
  ckpt::CheckpointPolicy p;
  p.path = path;
  p.interval_ticks = 0;  // stop snapshot only
  p.stop_at_tick = 1'777;  // the full run spans ~2.2k ticks
  EXPECT_THROW(run_once(cfg, w, "HF-RF", p), ckpt::CheckpointStop);
  EXPECT_TRUE(std::ifstream(path, std::ios::binary).good());

  ckpt::ResumeInfo info;
  ckpt::CheckpointPolicy fin;
  fin.path = path;
  fin.resume_info = &info;
  EXPECT_EQ(run_once(cfg, w, "HF-RF", fin), baseline);
  EXPECT_TRUE(info.resumed) << info.error;
}

TEST(Ckpt, FinishedSnapshotIsIdempotent) {
  // A completed checkpointed run leaves a finished=true snapshot; re-running
  // the same command restores it and reports identically without simulating.
  const sim::Workload w = sim::workload_by_name("2MEM-1");
  const sim::SystemConfig cfg = base_config(sim::Engine::kSkip, w.cores(), false);
  const std::string path = tmp_path("finished.ckpt");
  std::remove(path.c_str());
  ckpt::CheckpointPolicy p;
  p.path = path;
  const std::string first = run_once(cfg, w, "HF-RF", p);
  ckpt::ResumeInfo info;
  p.resume_info = &info;
  EXPECT_EQ(run_once(cfg, w, "HF-RF", p), first);
  EXPECT_TRUE(info.resumed) << info.error;
}

TEST(Ckpt, CorruptSnapshotFallsBackCleanly) {
  const sim::Workload w = sim::workload_by_name("2MEM-1");
  const sim::SystemConfig cfg = base_config(sim::Engine::kSkip, w.cores(), false);
  const std::string baseline = run_once(cfg, w, "HF-RF");

  const std::string path = tmp_path("corrupt.ckpt");
  std::remove(path.c_str());
  ckpt::CheckpointPolicy p;
  p.path = path;
  p.interval_ticks = 1'000;
  p.save_on_stop = false;
  p.stop_at_tick = 1'500;
  EXPECT_THROW(run_once(cfg, w, "HF-RF", p), ckpt::CheckpointStop);

  // Corrupt the parked snapshot (payload bit flip) — resume must fall back
  // to cycle zero with a diagnostic and still produce the exact baseline.
  auto bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x10;
  write_file(path, bytes);

  ckpt::ResumeInfo info;
  ckpt::CheckpointPolicy fin;
  fin.path = path;
  fin.resume_info = &info;
  EXPECT_EQ(run_once(cfg, w, "HF-RF", fin), baseline);
  EXPECT_TRUE(info.attempted);
  EXPECT_FALSE(info.resumed);
  EXPECT_FALSE(info.error.empty());
}

// A snapshot that exists but cannot be read is a bad snapshot like any other:
// a SnapshotError naming the errno, and a fallback to tick 0.
TEST(Snapshot, ReadErrorFallsBackToTickZero) {
  const sim::Workload w = sim::workload_by_name("2MEM-1");
  const sim::SystemConfig cfg = base_config(sim::Engine::kSkip, w.cores(), false);
  const std::string baseline = run_once(cfg, w, "HF-RF");

  const std::string path = tmp_path("read_error.ckpt");
  std::remove(path.c_str());
  ckpt::CheckpointPolicy p;
  p.path = path;
  p.stop_at_tick = 1'500;
  EXPECT_THROW(run_once(cfg, w, "HF-RF", p), ckpt::CheckpointStop);

  struct FailReads : util::FsFaultHooks {
    int fail_op(const char* op) override { return std::strcmp(op, "read") == 0 ? EIO : 0; }
  } eio;
  ckpt::ResumeInfo info;
  ckpt::CheckpointPolicy fin;
  fin.path = path;
  fin.resume_info = &info;
  {
    const util::ScopedFsFaults armed(&eio);
    EXPECT_EQ(run_once(cfg, w, "HF-RF", fin), baseline);
  }
  EXPECT_TRUE(info.attempted);
  EXPECT_FALSE(info.resumed);
  EXPECT_NE(info.error.find(std::strerror(EIO)), std::string::npos) << info.error;
}

TEST(Ckpt, GarbageFileFallsBackCleanly) {
  const sim::Workload w = sim::workload_by_name("2MEM-1");
  const sim::SystemConfig cfg = base_config(sim::Engine::kCycle, w.cores(), false);
  const std::string baseline = run_once(cfg, w, "HF-RF");
  const std::string path = tmp_path("garbage.ckpt");
  write_file(path, {'n', 'o', 't', ' ', 'a', ' ', 's', 'n', 'a', 'p'});
  ckpt::ResumeInfo info;
  ckpt::CheckpointPolicy p;
  p.path = path;
  p.resume_info = &info;
  EXPECT_EQ(run_once(cfg, w, "HF-RF", p), baseline);
  EXPECT_TRUE(info.attempted);
  EXPECT_FALSE(info.resumed);
}

TEST(Ckpt, CrossEngineResumeInvalidates) {
  // Satellite-2 regression at the snapshot layer: engine= participates in
  // the run fingerprint, so a cycle-engine snapshot must NOT resume a
  // skip-engine run — it falls back and recomputes from scratch.
  const sim::Workload w = sim::workload_by_name("2MEM-1");
  const sim::SystemConfig cyc = base_config(sim::Engine::kCycle, w.cores(), false);
  const sim::SystemConfig skp = base_config(sim::Engine::kSkip, w.cores(), false);
  const std::string baseline_skip = run_once(skp, w, "HF-RF");

  const std::string path = tmp_path("xengine.ckpt");
  std::remove(path.c_str());
  ckpt::CheckpointPolicy p;
  p.path = path;
  p.stop_at_tick = 1'200;
  EXPECT_THROW(run_once(cyc, w, "HF-RF", p), ckpt::CheckpointStop);

  ckpt::ResumeInfo info;
  ckpt::CheckpointPolicy fin;
  fin.path = path;
  fin.resume_info = &info;
  EXPECT_EQ(run_once(skp, w, "HF-RF", fin), baseline_skip);
  EXPECT_TRUE(info.attempted);
  EXPECT_FALSE(info.resumed);
  EXPECT_NE(info.error.find("fingerprint"), std::string::npos) << info.error;
}

TEST(Ckpt, AuditorAndCheckpointAreIncompatible) {
  const sim::Workload w = sim::workload_by_name("2MEM-1");
  sim::SystemConfig cfg = base_config(sim::Engine::kCycle, w.cores(), false);
  cfg.audit.enabled = true;
  ckpt::CheckpointPolicy p;
  p.path = tmp_path("audit_reject.ckpt");
  EXPECT_THROW(run_once(cfg, w, "HF-RF", p), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Signal plumbing.
// ---------------------------------------------------------------------------

TEST(CkptSignal, SigtermParksTheRun) {
  ckpt::install_stop_handlers();
  ckpt::reset_stop_for_tests();
  ASSERT_FALSE(ckpt::stop_requested());
  std::raise(SIGTERM);
  EXPECT_TRUE(ckpt::stop_requested());

  const sim::Workload w = sim::workload_by_name("2MEM-1");
  const sim::SystemConfig cfg = base_config(sim::Engine::kSkip, w.cores(), false);
  const std::string path = tmp_path("signal.ckpt");
  std::remove(path.c_str());
  ckpt::CheckpointPolicy p;
  p.path = path;
  p.stop = &ckpt::stop_flag();
  EXPECT_THROW(run_once(cfg, w, "HF-RF", p), ckpt::CheckpointStop);
  EXPECT_TRUE(std::ifstream(path, std::ios::binary).good());

  ckpt::reset_stop_for_tests();
  EXPECT_FALSE(ckpt::stop_requested());
  // With the flag cleared the parked run resumes and completes normally.
  ckpt::ResumeInfo info;
  ckpt::CheckpointPolicy fin;
  fin.path = path;
  fin.stop = &ckpt::stop_flag();
  fin.resume_info = &info;
  EXPECT_EQ(run_once(cfg, w, "HF-RF", fin), run_once(cfg, w, "HF-RF"));
  EXPECT_TRUE(info.resumed) << info.error;
}

}  // namespace
}  // namespace memsched
