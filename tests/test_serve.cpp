// Serve subsystem robustness tests: the wire codec and frame parser, the
// durable job queue (SIGKILL corruption matrix over every byte prefix of the
// WAL, bit-flip recovery, degraded mode under injected ENOSPC/EIO and its
// healing compaction), and the daemon protocol end-to-end over a real
// Unix-domain socket (submit/status/result/cancel/drain, duplicate
// collapsing, two-client concurrent-submission parity, graceful-stop exit
// code, restart recovery, and cross-grid result-cache sharing).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "harness/exit_codes.hpp"
#include "harness/grid.hpp"
#include "harness/orchestrator.hpp"
#include "serve/daemon.hpp"
#include "serve/job_queue.hpp"
#include "serve/wire.hpp"
#include "util/config.hpp"
#include "util/fs_fault.hpp"
#include "util/json.hpp"
#include "util/unix_socket.hpp"
#include "util/wallclock.hpp"

using namespace memsched;
namespace fs = std::filesystem;

namespace {

std::string tmp_dir(const std::string& name) {
  const std::string d = testing::TempDir() + "memsched_serve_" + name;
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

/// Lowercase hex of `n` bytes: byte-pin expectations stay readable diffs.
std::string hex(const void* data, std::size_t n) {
  static const char kDigits[] = "0123456789abcdef";
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out += kDigits[p[i] >> 4];
    out += kDigits[p[i] & 0xf];
  }
  return out;
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

/// A quick, real grid spec (one workload x one scheme, short traces) in the
/// daemon's submission format.
const char* kQuickSpec =
    "workloads=2MEM-1\n"
    "schemes=HF-RF\n"
    "insts=15000\n"
    "profile_insts=50000\n";

/// The dedupe key the daemon computes for a spec — same parse, same
/// fingerprint.
std::string key_for_spec(const std::string& spec) {
  util::Config cli;
  std::istringstream lines(spec);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) {
      EXPECT_FALSE(cli.parse_token(line).has_value()) << line;
    }
  }
  return harness::fingerprint(harness::grid_from_config(cli));
}

// ---------------------------------------------------------------------------
// Wire codec.

TEST(ServeWire, WriterReaderRoundTrip) {
  ckpt::Writer w;
  w.put_u8(7);
  w.put_u32(0xdead'beef);
  w.put_u64(0x0123'4567'89ab'cdefULL);
  w.put_str32("hello");
  w.put_str32("");  // empty strings are legal
  const std::vector<std::uint8_t> buf = w.record();

  ckpt::Reader r = ckpt::Reader::record(buf.data(), buf.size());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xdead'beefu);
  EXPECT_EQ(r.get_u64(), 0x0123'4567'89ab'cdefULL);
  EXPECT_EQ(r.get_str32(), "hello");
  EXPECT_EQ(r.get_str32(), "");
  EXPECT_NO_THROW(r.close_section());  // consumed exactly
}

TEST(ServeWire, ReaderThrowsOnOverRead) {
  ckpt::Writer w;
  w.put_u32(42);
  const std::vector<std::uint8_t> buf = w.record();

  ckpt::Reader r = ckpt::Reader::record(buf.data(), buf.size());
  EXPECT_THROW((void)r.get_u64(), ckpt::SnapshotError);  // 8 > 4 available

  ckpt::Reader r2 = ckpt::Reader::record(buf.data(), buf.size());
  (void)r2.get_u32();
  EXPECT_THROW((void)r2.get_u8(), ckpt::SnapshotError);  // exhausted
}

TEST(ServeWire, ReaderThrowsOnOversizedStringLength) {
  ckpt::Writer w;
  w.put_u32(0x00ff'ffff);  // declared string length with no bytes behind it
  w.put_u8(0);
  const std::vector<std::uint8_t> buf = w.record();
  ckpt::Reader r = ckpt::Reader::record(buf.data(), buf.size());
  EXPECT_THROW((void)r.get_str32(), ckpt::SnapshotError);
}

TEST(ServeWire, ParseFrameAcceptsWholeAndChainsSequentially) {
  const std::vector<std::uint8_t> p1 = {1, 2, 3};
  const std::vector<std::uint8_t> p2 = {9};
  std::vector<std::uint8_t> stream = serve::frame_payload(serve::kQueueFrameMagic, p1);
  const std::vector<std::uint8_t> f2 = serve::frame_payload(serve::kQueueFrameMagic, p2);
  stream.insert(stream.end(), f2.begin(), f2.end());

  const serve::FrameParse a =
      serve::parse_frame(serve::kQueueFrameMagic, stream.data(), stream.size());
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.payload, p1);
  const serve::FrameParse b = serve::parse_frame(
      serve::kQueueFrameMagic, stream.data() + a.consumed, stream.size() - a.consumed);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(b.payload, p2);
  EXPECT_EQ(a.consumed + b.consumed, stream.size());
}

TEST(ServeWire, ParseFrameEveryProperPrefixIsNeedMore) {
  const std::vector<std::uint8_t> frame =
      serve::frame_payload(serve::kQueueFrameMagic, {10, 20, 30, 40});
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const serve::FrameParse fp =
        serve::parse_frame(serve::kQueueFrameMagic, frame.data(), len);
    EXPECT_FALSE(fp.ok) << "prefix " << len;
    EXPECT_TRUE(fp.need_more) << "prefix " << len;
  }
}

TEST(ServeWire, ParseFrameRejectsCorruption) {
  // Wrong magic from the very first byte: corrupt, not need_more.
  const std::uint8_t junk[] = {0xff};
  serve::FrameParse fp = serve::parse_frame(serve::kQueueFrameMagic, junk, 1);
  EXPECT_FALSE(fp.ok);
  EXPECT_FALSE(fp.need_more);

  // Implausible length field.
  ckpt::Writer w;
  w.put_u32(serve::kQueueFrameMagic);
  w.put_u32(serve::kMaxFramePayload + 1);
  w.put_u32(0);
  const std::vector<std::uint8_t> header = w.record();
  fp = serve::parse_frame(serve::kQueueFrameMagic, header.data(), header.size());
  EXPECT_FALSE(fp.ok);
  EXPECT_FALSE(fp.need_more);

  // Payload flip: CRC mismatch.
  std::vector<std::uint8_t> frame =
      serve::frame_payload(serve::kQueueFrameMagic, {10, 20, 30});
  frame.back() ^= 0x01;
  fp = serve::parse_frame(serve::kQueueFrameMagic, frame.data(), frame.size());
  EXPECT_FALSE(fp.ok);
  EXPECT_FALSE(fp.need_more);
}

TEST(ServeWire, QueueRecordCodecRoundTripAndStructuralChecks) {
  serve::QueueRecord rec;
  rec.id = 42;
  rec.key = "grid-v2|w=2MEM-1|s=HF-RF|...";
  rec.state = serve::JobState::kFailed;
  rec.attempts = 3;
  rec.spec = kQuickSpec;
  rec.error = "runner exited 5 (internal)";

  const std::vector<std::uint8_t> bytes = serve::encode_queue_record(rec);
  const serve::QueueRecord back = serve::decode_queue_record(bytes.data(), bytes.size());
  EXPECT_EQ(back.id, rec.id);
  EXPECT_EQ(back.key, rec.key);
  EXPECT_EQ(back.state, rec.state);
  EXPECT_EQ(back.attempts, rec.attempts);
  EXPECT_EQ(back.spec, rec.spec);
  EXPECT_EQ(back.error, rec.error);

  // Trailing bytes are corruption, not slack.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW((void)serve::decode_queue_record(padded.data(), padded.size()),
               ckpt::SnapshotError);

  // An out-of-range state byte is corruption too. The state field sits right
  // after id (u64) + key (u32 len + bytes).
  std::vector<std::uint8_t> bad = bytes;
  bad[8 + 4 + rec.key.size()] = 99;
  EXPECT_THROW((void)serve::decode_queue_record(bad.data(), bad.size()),
               ckpt::SnapshotError);
}

// The bytes of a WAL record frame and of a socket frame are durable and
// cross-process formats: a change must be deliberate, never a side effect.
TEST(ServeWire, QueueFrameBytesPinned) {
  serve::QueueRecord rec;
  rec.id = 0x0102'0304'0506'0708ULL;
  rec.key = "grid|w=2MEM-1";
  rec.state = serve::JobState::kFailed;
  rec.attempts = 3;
  rec.spec = "schemes=HF-RF\n";
  rec.error = "exit 5";
  const std::vector<std::uint8_t> frame =
      serve::frame_payload(serve::kQueueFrameMagic, serve::encode_queue_record(rec));
  EXPECT_EQ(hex(frame.data(), frame.size()),
            "4d5351313a0000005c1d7e9408070605040302010d000000677269647c773d324d454d2d31"
            "03030000000e000000736368656d65733d48462d52460a06000000657869742035");
}

TEST(ServeWire, SocketFrameBytesPinned) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const util::Fd tx(fds[0]);
  const util::Fd rx(fds[1]);
  util::Json doc = util::Json::object();
  doc["cmd"] = "status";
  doc["id"] = std::uint64_t{3};
  ASSERT_TRUE(serve::write_json(tx.get(), doc));
  std::uint8_t buf[256];
  const ssize_t n = ::read(rx.get(), buf, sizeof buf);
  ASSERT_GT(n, 0);
  EXPECT_EQ(hex(buf, static_cast<std::size_t>(n)),
            "4d53473120000000a265bf207b0a202022636d64223a2022737461747573222c0a2020"
            "226964223a20330a7d");
}

// ---------------------------------------------------------------------------
// Job queue state machine and persistence.

using JobSnap =
    std::map<std::uint64_t,
             std::tuple<std::string, serve::JobState, std::uint32_t, std::string,
                        std::string>>;

JobSnap snap(const serve::JobQueue& q) {
  JobSnap out;
  for (const serve::QueueRecord* rec : q.jobs()) {
    out[rec->id] = {rec->key, rec->state, rec->attempts, rec->spec, rec->error};
  }
  return out;
}

TEST(ServeQueue, SubmitDedupeAndLifecycle) {
  const std::string dir = tmp_dir("lifecycle");
  serve::JobQueue q(dir, nullptr, /*verbose=*/false);
  ASSERT_TRUE(q.open());

  const auto a = q.submit("key-a", "spec-a");
  EXPECT_EQ(a.id, 1u);
  EXPECT_TRUE(a.accepted);
  EXPECT_FALSE(a.duplicate);

  // Same key again: collapsed, nothing new runs.
  const auto a2 = q.submit("key-a", "spec-a");
  EXPECT_EQ(a2.id, 1u);
  EXPECT_FALSE(a2.accepted);
  EXPECT_TRUE(a2.duplicate);

  const auto b = q.submit("key-b", "spec-b");
  EXPECT_EQ(b.id, 2u);

  EXPECT_EQ(q.next_queued()->id, 1u);
  EXPECT_TRUE(q.mark_running(1));
  EXPECT_EQ(q.find(1)->attempts, 1u);
  EXPECT_EQ(q.next_queued()->id, 2u);
  EXPECT_TRUE(q.mark_done(1));

  EXPECT_TRUE(q.mark_running(2));
  EXPECT_TRUE(q.requeue(2));  // graceful park keeps the attempt count
  EXPECT_EQ(q.find(2)->state, serve::JobState::kQueued);
  EXPECT_EQ(q.find(2)->attempts, 1u);
  EXPECT_TRUE(q.mark_running(2));
  EXPECT_TRUE(q.mark_failed(2, "boom"));

  // Done jobs dedupe; failed jobs requeue on resubmission with a fresh
  // attempt budget.
  EXPECT_FALSE(q.submit("key-a", "spec-a").accepted);
  const auto b2 = q.submit("key-b", "spec-b2");
  EXPECT_EQ(b2.id, 2u);
  EXPECT_TRUE(b2.accepted);
  EXPECT_TRUE(b2.duplicate);
  EXPECT_EQ(q.find(2)->state, serve::JobState::kQueued);
  EXPECT_EQ(q.find(2)->attempts, 0u);
  EXPECT_EQ(q.find(2)->spec, "spec-b2");
  EXPECT_TRUE(q.find(2)->error.empty());

  EXPECT_TRUE(q.mark_cancelled(2));
  EXPECT_EQ(q.next_queued(), nullptr);

  // Unknown ids are reported, not UB.
  EXPECT_FALSE(q.mark_running(99));
  EXPECT_EQ(q.find(99), nullptr);
  EXPECT_EQ(q.find_by_key("nope"), nullptr);
  EXPECT_EQ(q.find_by_key("key-a")->id, 1u);

  // Everything above survives a reopen byte-for-byte at the state level.
  const JobSnap before = snap(q);
  serve::JobQueue q2(dir, nullptr, /*verbose=*/false);
  ASSERT_TRUE(q2.open());
  EXPECT_EQ(snap(q2), before);
  EXPECT_EQ(q2.truncated_bytes(), 0u);

  // Compaction folds history to one frame per job and preserves state.
  ASSERT_TRUE(q2.compact());
  serve::JobQueue q3(dir, nullptr, /*verbose=*/false);
  ASSERT_TRUE(q3.open());
  EXPECT_EQ(snap(q3), before);
  EXPECT_EQ(q3.replayed(), before.size());
}

// The SIGKILL corruption matrix: run a known operation history, then replay
// every byte-length prefix of the WAL as if the daemon had been SIGKILLed at
// exactly that offset. Recovery must land on precisely the state after the
// last wholly-durable operation — no lost completed frames, no duplicated or
// invented jobs — and client-style resubmission must converge back to the
// full job set.
TEST(ServeQueue, SigkillCorruptionMatrixRecoversExactPrefix) {
  const std::string dir = tmp_dir("matrix_src");
  serve::JobQueue q(dir, nullptr, /*verbose=*/false);
  ASSERT_TRUE(q.open());

  std::vector<JobSnap> snaps;      // state after op k (snaps[0] = empty)
  std::vector<std::uint64_t> sizes;  // durable WAL bytes after op k
  const auto checkpoint = [&] {
    snaps.push_back(snap(q));
    sizes.push_back(fs::file_size(q.wal_path()));
  };
  snaps.push_back({});
  sizes.push_back(0);

  // Each operation appends exactly one frame.
  q.submit("key-1", "spec one");
  checkpoint();
  q.submit("key-2", "spec two");
  checkpoint();
  q.mark_running(1);
  checkpoint();
  q.mark_done(1);
  checkpoint();
  q.submit("key-3", "spec three");
  checkpoint();
  q.mark_running(2);
  checkpoint();
  q.mark_failed(2, "io troubles");
  checkpoint();
  q.submit("key-2", "spec two again");  // failed -> requeued
  checkpoint();
  q.mark_cancelled(3);
  checkpoint();

  const std::string wal = slurp(q.wal_path());
  ASSERT_EQ(wal.size(), sizes.back());

  const std::string crash_dir = tmp_dir("matrix_crash");
  for (std::size_t cut = 0; cut <= wal.size(); ++cut) {
    fs::remove_all(crash_dir);
    fs::create_directories(crash_dir);
    spew(crash_dir + "/queue.wal", wal.substr(0, cut));

    serve::JobQueue rec(crash_dir, nullptr, /*verbose=*/false);
    ASSERT_TRUE(rec.open()) << "cut=" << cut;

    // The expected state is the latest operation whose frame fits in the cut.
    std::size_t op = 0;
    while (op + 1 < sizes.size() && sizes[op + 1] <= cut) ++op;
    EXPECT_EQ(snap(rec), snaps[op]) << "cut=" << cut;
    EXPECT_EQ(rec.replayed(), op) << "cut=" << cut;
    EXPECT_EQ(rec.truncated_bytes(), cut - sizes[op]) << "cut=" << cut;

    // Unacked submissions are retried by the client; resubmitting every key
    // converges to the full set with no duplicates, whatever survived.
    rec.submit("key-1", "spec one");
    rec.submit("key-2", "spec two");
    rec.submit("key-3", "spec three");
    EXPECT_EQ(rec.jobs().size(), 3u) << "cut=" << cut;
    EXPECT_NE(rec.find_by_key("key-1"), nullptr) << "cut=" << cut;
    EXPECT_NE(rec.find_by_key("key-2"), nullptr) << "cut=" << cut;
    EXPECT_NE(rec.find_by_key("key-3"), nullptr) << "cut=" << cut;
  }
}

// Media corruption rather than a torn append: flip every byte of the WAL in
// turn. CRC framing must detect each flip and recovery must truncate to a
// whole-frame prefix — the recovered state is always some point of the real
// history, never an invented one.
TEST(ServeQueue, BitFlipRecoveryLandsOnRealHistory) {
  const std::string dir = tmp_dir("flip_src");
  serve::JobQueue q(dir, nullptr, /*verbose=*/false);
  ASSERT_TRUE(q.open());

  std::vector<JobSnap> history;
  history.push_back({});
  q.submit("key-1", "first spec");
  history.push_back(snap(q));
  q.mark_running(1);
  history.push_back(snap(q));
  q.submit("key-2", "second spec");
  history.push_back(snap(q));
  q.mark_done(1);
  history.push_back(snap(q));

  const std::string wal = slurp(q.wal_path());
  const std::string flip_dir = tmp_dir("flip_crash");
  for (std::size_t i = 0; i < wal.size(); ++i) {
    std::string mutated = wal;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    fs::remove_all(flip_dir);
    fs::create_directories(flip_dir);
    spew(flip_dir + "/queue.wal", mutated);

    serve::JobQueue rec(flip_dir, nullptr, /*verbose=*/false);
    ASSERT_TRUE(rec.open()) << "flip at " << i;
    const JobSnap got = snap(rec);
    bool matches_history = false;
    for (const JobSnap& h : history) matches_history |= (got == h);
    EXPECT_TRUE(matches_history) << "flip at " << i << " invented state";
  }
}

// ---------------------------------------------------------------------------
// Degraded mode: queue I/O failure must not lose state or kill the daemon.

TEST(ServeQueue, EnospcDegradesServesFromMemoryAndHealsByCompaction) {
  const std::string dir = tmp_dir("enospc");
  ScriptedFaults faults;
  faults.fail_name = "write";
  faults.fail_errno = ENOSPC;
  faults.fail_count = -1;

  serve::JobQueue q(dir, &faults, /*verbose=*/false);
  ASSERT_TRUE(q.open());

  // The append fails, the torn bytes are rolled back, and the queue keeps
  // serving the submission from memory.
  q.submit("key-1", "spec one");
  EXPECT_TRUE(q.degraded());
  ASSERT_NE(q.find(1), nullptr);
  EXPECT_EQ(fs::file_size(q.wal_path()), 0u) << "torn bytes must be rolled back";

  // Still failing: the healing compaction attempt also fails, state still
  // advances in memory.
  q.submit("key-2", "spec two");
  EXPECT_TRUE(q.degraded());
  EXPECT_EQ(q.jobs().size(), 2u);

  // Disk recovers: the next mutation heals the queue via compaction, and the
  // WAL then holds EVERYTHING, including the mutations made while degraded.
  faults.fail_count = 0;
  q.mark_running(1);
  EXPECT_FALSE(q.degraded());

  serve::JobQueue back(dir, nullptr, /*verbose=*/false);
  ASSERT_TRUE(back.open());
  EXPECT_EQ(snap(back), snap(q));
  EXPECT_EQ(back.find(1)->state, serve::JobState::kRunning);
  EXPECT_EQ(back.find(2)->state, serve::JobState::kQueued);
}

TEST(ServeQueue, FsyncFailureDegradesThenHeals) {
  const std::string dir = tmp_dir("fsync");
  ScriptedFaults faults;
  faults.fail_name = "fsync";
  faults.fail_errno = EIO;
  faults.fail_count = 1;

  serve::JobQueue q(dir, &faults, /*verbose=*/false);
  ASSERT_TRUE(q.open());

  // A write that cannot be made durable is a failed write: rolled back and
  // degraded, never half-acknowledged.
  q.submit("key-1", "spec one");
  EXPECT_TRUE(q.degraded());
  EXPECT_EQ(fs::file_size(q.wal_path()), 0u);

  // The fault was transient, so the very next mutation heals.
  q.submit("key-2", "spec two");
  EXPECT_FALSE(q.degraded());

  serve::JobQueue back(dir, nullptr, /*verbose=*/false);
  ASSERT_TRUE(back.open());
  EXPECT_EQ(back.jobs().size(), 2u);
}

// A WAL that exists but cannot be read is refused, not replayed as empty:
// recovery rewrites the file, so it must never act on a partial read.
TEST(ServeQueue, ReadErrorRefusesAndLeavesWalIntact) {
  const std::string dir = tmp_dir("read_error");
  {
    serve::JobQueue q(dir, nullptr, /*verbose=*/false);
    ASSERT_TRUE(q.open());
    for (int i = 0; i < 3; ++i) q.submit("key-" + std::to_string(i), kQuickSpec);
  }
  const std::string wal = dir + "/queue.wal";
  const std::string before = slurp(wal);
  ASSERT_FALSE(before.empty());

  ScriptedFaults faults;
  faults.fail_name = "read";
  faults.fail_errno = EIO;
  faults.fail_count = -1;
  serve::JobQueue q(dir, &faults, /*verbose=*/false);
  EXPECT_FALSE(q.open());
  EXPECT_NE(q.error().find(std::strerror(EIO)), std::string::npos) << q.error();
  EXPECT_EQ(slurp(wal), before);

  serve::JobQueue healed(dir, nullptr, /*verbose=*/false);
  ASSERT_TRUE(healed.open());
  EXPECT_EQ(healed.jobs().size(), 3u);
  EXPECT_EQ(slurp(wal), before);
}

TEST(ServeQueue, ShortWritesAreInvisible) {
  // A kernel that only takes a few bytes per write() must not corrupt frames.
  const std::string dir = tmp_dir("shortw");
  ScriptedFaults faults;
  faults.clamp = 3;

  serve::JobQueue q(dir, &faults, /*verbose=*/false);
  ASSERT_TRUE(q.open());
  q.submit("key-1", "a spec that spans many short writes");
  q.mark_running(1);
  EXPECT_FALSE(q.degraded());

  serve::JobQueue back(dir, nullptr, /*verbose=*/false);
  ASSERT_TRUE(back.open());
  EXPECT_EQ(snap(back), snap(q));
}

// ---------------------------------------------------------------------------
// Daemon protocol over a real socket (inline execution: the test is
// threaded, so jobs run inside the event loop; the forked-runner path is
// covered by the serve smoke script and the tool round-trip ctest).

serve::ServeConfig daemon_cfg(const std::string& dir) {
  serve::ServeConfig cfg;
  cfg.socket_path = dir + "/d.sock";
  cfg.state_dir = dir + "/state";
  cfg.inline_exec = true;
  cfg.verbose = false;
  cfg.backoff_seconds = 0.0;
  return cfg;
}

/// One request/reply exchange. `extra` receives the raw second frame when
/// the reply advertises one (the `result` command's report bytes). Retries
/// connection failures briefly so tests can race the daemon thread's startup.
util::Json rpc(const std::string& sock, const util::Json& req,
               std::string* extra = nullptr) {
  const util::MonotonicTime start = util::monotonic_now();
  for (;;) {
    util::Fd conn = util::unix_connect(sock);
    if (conn.valid()) {
      EXPECT_TRUE(serve::write_json(conn.get(), req));
      std::vector<std::uint8_t> payload;
      std::string err;
      EXPECT_TRUE(serve::read_message(conn.get(), &payload, &err)) << err;
      const util::Json resp = util::Json::parse(std::string_view(
          reinterpret_cast<const char*>(payload.data()), payload.size()));
      if (extra != nullptr && resp.find("bytes") != nullptr) {
        std::vector<std::uint8_t> raw;
        EXPECT_TRUE(serve::read_message(conn.get(), &raw, &err)) << err;
        extra->assign(raw.begin(), raw.end());
      }
      return resp;
    }
    if (util::seconds_between(start, util::monotonic_now()) > 10.0) {
      ADD_FAILURE() << "cannot connect to " << sock;
      return util::Json::object();
    }
    ::usleep(20 * 1000);
  }
}

util::Json cmd(const std::string& name) {
  util::Json req = util::Json::object();
  req["cmd"] = name;
  return req;
}

/// Polls `status` until job `id` reaches a terminal state; returns it.
std::string wait_terminal(const std::string& sock, std::uint64_t id) {
  const util::MonotonicTime start = util::monotonic_now();
  for (;;) {
    util::Json req = cmd("status");
    req["id"] = id;
    const util::Json resp = rpc(sock, req);
    if (resp.find("ok") != nullptr && resp.at("ok").as_bool()) {
      const std::string state = resp.at("jobs").at(0).at("state").as_string();
      if (state == "done" || state == "failed" || state == "cancelled") return state;
    }
    if (util::seconds_between(start, util::monotonic_now()) > 120.0) {
      ADD_FAILURE() << "job " << id << " never reached a terminal state";
      return "timeout";
    }
    ::usleep(50 * 1000);
  }
}

TEST(ServeDaemon, SubmitStatusResultDuplicateCancelDrain) {
  const std::string dir = tmp_dir("daemon_e2e");
  fs::create_directories(dir);
  serve::Daemon d(daemon_cfg(dir));
  ASSERT_TRUE(d.start()) << d.error();
  std::thread loop([&] { (void)d.run(); });

  const util::Json pong = rpc(dir + "/d.sock", cmd("ping"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_FALSE(pong.at("degraded").as_bool());

  util::Json submit = cmd("submit");
  submit["spec"] = kQuickSpec;
  const util::Json acc = rpc(dir + "/d.sock", submit);
  ASSERT_TRUE(acc.at("ok").as_bool()) << acc.dump(0);
  EXPECT_EQ(acc.at("id").as_uint(), 1u);
  EXPECT_FALSE(acc.at("duplicate").as_bool());

  EXPECT_EQ(wait_terminal(dir + "/d.sock", 1), "done");

  std::string report;
  util::Json result = cmd("result");
  result["id"] = std::uint64_t{1};
  const util::Json res = rpc(dir + "/d.sock", result, &report);
  ASSERT_TRUE(res.at("ok").as_bool()) << res.dump(0);
  EXPECT_EQ(res.at("bytes").as_uint(), report.size());
  EXPECT_NE(report.find("smt_speedup"), std::string::npos);

  // Resubmitting the identical grid collapses onto the finished job; the
  // report is served again, byte-identical.
  const util::Json dup = rpc(dir + "/d.sock", submit);
  ASSERT_TRUE(dup.at("ok").as_bool());
  EXPECT_EQ(dup.at("id").as_uint(), 1u);
  EXPECT_TRUE(dup.at("duplicate").as_bool());
  EXPECT_EQ(dup.at("state").as_string(), "done");
  std::string report2;
  EXPECT_TRUE(rpc(dir + "/d.sock", result, &report2).at("ok").as_bool());
  EXPECT_EQ(report, report2);

  // Protocol error surfaces, not crashes.
  EXPECT_FALSE(rpc(dir + "/d.sock", cmd("frobnicate")).at("ok").as_bool());
  util::Json bad_cancel = cmd("cancel");
  bad_cancel["id"] = std::uint64_t{999};
  EXPECT_EQ(rpc(dir + "/d.sock", bad_cancel).at("error").as_string(), "no such job");
  util::Json done_cancel = cmd("cancel");
  done_cancel["id"] = std::uint64_t{1};
  EXPECT_EQ(rpc(dir + "/d.sock", done_cancel).at("error").as_string(),
            "job already done");

  // Drain: finish in-flight work (none) and exit with the clean code.
  EXPECT_TRUE(rpc(dir + "/d.sock", cmd("drain")).at("ok").as_bool());
  loop.join();
  EXPECT_EQ(d.exit_code(), 0);
}

TEST(ServeDaemon, TwoClientConcurrentSubmissionsCollapseToOneJob) {
  const std::string dir = tmp_dir("daemon_race");
  fs::create_directories(dir);
  serve::Daemon d(daemon_cfg(dir));
  ASSERT_TRUE(d.start()) << d.error();
  std::thread loop([&] { (void)d.run(); });

  util::Json submit = cmd("submit");
  submit["spec"] = kQuickSpec;
  util::Json replies[2];
  std::thread c0([&] { replies[0] = rpc(dir + "/d.sock", submit); });
  std::thread c1([&] { replies[1] = rpc(dir + "/d.sock", submit); });
  c0.join();
  c1.join();

  ASSERT_TRUE(replies[0].at("ok").as_bool()) << replies[0].dump(0);
  ASSERT_TRUE(replies[1].at("ok").as_bool()) << replies[1].dump(0);
  EXPECT_EQ(replies[0].at("id").as_uint(), replies[1].at("id").as_uint());
  EXPECT_TRUE(replies[0].at("duplicate").as_bool() ||
              replies[1].at("duplicate").as_bool());

  const util::Json status = rpc(dir + "/d.sock", cmd("status"));
  ASSERT_TRUE(status.at("ok").as_bool());
  EXPECT_EQ(status.at("jobs").size(), 1u) << "concurrent submits must dedupe";

  EXPECT_EQ(wait_terminal(dir + "/d.sock", replies[0].at("id").as_uint()), "done");
  std::string r0;
  std::string r1;
  util::Json result = cmd("result");
  result["id"] = replies[0].at("id").as_uint();
  EXPECT_TRUE(rpc(dir + "/d.sock", result, &r0).at("ok").as_bool());
  EXPECT_TRUE(rpc(dir + "/d.sock", result, &r1).at("ok").as_bool());
  EXPECT_FALSE(r0.empty());
  EXPECT_EQ(r0, r1);

  d.request_stop();
  loop.join();
  EXPECT_EQ(d.exit_code(), harness::kExitInterrupted);
}

// A value that does not parse refuses the submission the way an unknown key
// does: an error reply naming the key and value, and nothing queued.
TEST(ServeDaemon, SubmitWithMalformedValueIsRefusedAndQueuesNothing) {
  const std::string dir = tmp_dir("daemon_bad_value");
  fs::create_directories(dir);
  serve::Daemon d(daemon_cfg(dir));
  ASSERT_TRUE(d.start()) << d.error();
  std::thread loop([&] { (void)d.run(); });

  const std::pair<const char*, const char*> cases[] = {
      {"workloads=2MEM-1\nschemes=HF-RF\ninsts=1e4\n", "'insts=1e4'"},
      {"workloads=2MEM-1\nschemes=HF-RF\ninterleave=pgae\n", "'pgae'"},
      {"workloads=2MEM-1\nschemes=HF-RF\nprofile_seed=-1\n", "'profile_seed=-1'"}};
  for (const auto& [spec, named] : cases) {
    util::Json submit = cmd("submit");
    submit["spec"] = spec;
    const util::Json resp = rpc(dir + "/d.sock", submit);
    ASSERT_FALSE(resp.at("ok").as_bool()) << spec;
    const std::string& error = resp.at("error").as_string();
    EXPECT_EQ(error.rfind("submit: ", 0), 0u) << error;
    EXPECT_NE(error.find(named), std::string::npos) << error;
  }

  const util::Json status = rpc(dir + "/d.sock", cmd("status"));
  ASSERT_TRUE(status.at("ok").as_bool());
  EXPECT_EQ(status.at("jobs").size(), 0u);
  EXPECT_TRUE(d.queue().jobs().empty());

  d.request_stop();
  loop.join();
}

TEST(ServeDaemon, GracefulStopExitsWithInterruptedCode) {
  const std::string dir = tmp_dir("daemon_stop");
  fs::create_directories(dir);
  serve::Daemon d(daemon_cfg(dir));
  ASSERT_TRUE(d.start()) << d.error();
  std::thread loop([&] { (void)d.run(); });
  EXPECT_TRUE(rpc(dir + "/d.sock", cmd("ping")).at("ok").as_bool());
  d.request_stop();
  loop.join();
  EXPECT_EQ(d.exit_code(), harness::kExitInterrupted);
}

// Restart recovery through the real protocol: a daemon inherits a queue with
// a failed job from a previous incarnation, serves its diagnosis, accepts
// the resubmission (failed -> requeued), finishes it, and a THIRD
// incarnation serves the identical report bytes.
TEST(ServeDaemon, RestartRecoversFailedJobAndServesIdenticalReport) {
  const std::string dir = tmp_dir("daemon_restart");
  fs::create_directories(dir);
  const std::string key = key_for_spec(kQuickSpec);

  {
    serve::JobQueue seed(dir + "/state/queue", nullptr, /*verbose=*/false);
    ASSERT_TRUE(seed.open());
    ASSERT_EQ(seed.submit(key, kQuickSpec).id, 1u);
    seed.mark_running(1);
    seed.mark_failed(1, "boom");
  }

  std::string report;
  {
    serve::Daemon d(daemon_cfg(dir));
    ASSERT_TRUE(d.start()) << d.error();
    std::thread loop([&] { (void)d.run(); });

    util::Json result = cmd("result");
    result["id"] = std::uint64_t{1};
    const util::Json failed = rpc(dir + "/d.sock", result);
    EXPECT_FALSE(failed.at("ok").as_bool());
    EXPECT_EQ(failed.at("error").as_string(), "job failed: boom");

    util::Json submit = cmd("submit");
    submit["spec"] = kQuickSpec;
    const util::Json acc = rpc(dir + "/d.sock", submit);
    ASSERT_TRUE(acc.at("ok").as_bool()) << acc.dump(0);
    EXPECT_EQ(acc.at("id").as_uint(), 1u);
    EXPECT_TRUE(acc.at("duplicate").as_bool());

    EXPECT_EQ(wait_terminal(dir + "/d.sock", 1), "done");
    EXPECT_TRUE(rpc(dir + "/d.sock", result, &report).at("ok").as_bool());
    EXPECT_NE(report.find("smt_speedup"), std::string::npos);

    d.request_stop();
    loop.join();
    EXPECT_EQ(d.exit_code(), harness::kExitInterrupted);
  }

  {
    serve::Daemon d(daemon_cfg(dir));
    ASSERT_TRUE(d.start()) << d.error();
    EXPECT_EQ(d.queue().find(1)->state, serve::JobState::kDone);
    std::thread loop([&] { (void)d.run(); });

    std::string again;
    util::Json result = cmd("result");
    result["id"] = std::uint64_t{1};
    EXPECT_TRUE(rpc(dir + "/d.sock", result, &again).at("ok").as_bool());
    EXPECT_EQ(again, report);

    EXPECT_TRUE(rpc(dir + "/d.sock", cmd("drain")).at("ok").as_bool());
    loop.join();
    EXPECT_EQ(d.exit_code(), 0);
  }
}

// ---------------------------------------------------------------------------
// Incremental re-sweeps: two grids sharing a configuration share result-cache
// entries per point, because the daemon keys the cache on the
// point-independent config fingerprint plus the point name.

TEST(ServeGrid, ConfigFingerprintSharesCacheAcrossGrids) {
  util::Config c1;
  ASSERT_FALSE(c1.parse_token("workloads=2MEM-1").has_value());
  ASSERT_FALSE(c1.parse_token("schemes=HF-RF").has_value());
  ASSERT_FALSE(c1.parse_token("insts=15000").has_value());
  ASSERT_FALSE(c1.parse_token("profile_insts=50000").has_value());
  const harness::GridSpec g1 = harness::grid_from_config(c1);

  util::Config c2;
  ASSERT_FALSE(c2.parse_token("workloads=2MEM-1").has_value());
  ASSERT_FALSE(c2.parse_token("schemes=HF-RF,FCFS").has_value());
  ASSERT_FALSE(c2.parse_token("insts=15000").has_value());
  ASSERT_FALSE(c2.parse_token("profile_insts=50000").has_value());
  const harness::GridSpec g2 = harness::grid_from_config(c2);

  // Different grids, one configuration: the classic sweep identity differs,
  // the config identity matches.
  EXPECT_NE(harness::fingerprint(g1), harness::fingerprint(g2));
  EXPECT_EQ(harness::config_fingerprint(g1), harness::config_fingerprint(g2));

  // A knob that changes results must change the config identity.
  util::Config c3;
  ASSERT_FALSE(c3.parse_token("workloads=2MEM-1").has_value());
  ASSERT_FALSE(c3.parse_token("schemes=HF-RF").has_value());
  ASSERT_FALSE(c3.parse_token("insts=20000").has_value());
  ASSERT_FALSE(c3.parse_token("profile_insts=50000").has_value());
  EXPECT_NE(harness::config_fingerprint(g1),
            harness::config_fingerprint(harness::grid_from_config(c3)));

  // And the sharing is real: sweep grid 1, then the superset grid 2 against
  // the same cache — its HF-RF point is served from the cache, not re-run.
  const std::string dir = tmp_dir("cache_share");
  const auto orch_cfg = [&](const harness::GridSpec& g, const char* tag) {
    harness::OrchestratorConfig oc;
    oc.work_dir = dir + "/work-" + tag;
    oc.cache_dir = dir + "/cache";
    oc.fingerprint = harness::fingerprint(g);
    oc.cache_fingerprint = harness::config_fingerprint(g);
    oc.isolate = false;
    oc.verbose = false;
    return oc;
  };
  harness::Orchestrator first(orch_cfg(g1, "a"));
  const harness::SweepSummary s1 = first.run(harness::grid_points(g1));
  ASSERT_TRUE(s1.complete());
  EXPECT_EQ(s1.ok, 1u);
  EXPECT_EQ(s1.cache_hits, 0u);

  harness::Orchestrator second(orch_cfg(g2, "b"));
  const harness::SweepSummary s2 = second.run(harness::grid_points(g2));
  ASSERT_TRUE(s2.complete());
  EXPECT_EQ(s2.ok, 2u);
  EXPECT_EQ(s2.cache_hits, 1u) << "shared point must be a cache hit";
  EXPECT_EQ(s2.executed, 1u);
}

}  // namespace
