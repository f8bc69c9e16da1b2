// Snapshot byte pins for every checkpointed section.
//
// test_kernel_golden pins the snapshot bytes of one configuration only
// (2MEM-1 under ME-LREQ): no scheduler state, prefetcher off, synthetic
// streams. A layout change that save and load make together round-trips
// cleanly, so only a byte pin notices it. This suite parks runs that put
// state into the remaining sections and pins each parked snapshot as its
// FNV-1a hash:
//   * every scheme with scheduler state (RR, FQ, STFM, PAR-BS, BLISS, TCM,
//     CADS, ME-LREQ-ONLINE), parked after several system and controller
//     epochs;
//   * the L2 stream prefetcher on (its table and the prefetch MSHR entries);
//   * a 2-core system over ReplayStreams (the replay cursor).
// Each case also resumes the parked snapshot in a fresh system and checks
// that the finished report equals an uninterrupted run's.
//
// Regenerate only for a deliberate snapshot change (and then bump
// ckpt::kVersion):
//   MEMSCHED_UPDATE_GOLDEN=1 ./tests/test_snapshot_pins
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "ckpt/policy.hpp"
#include "core/scheduler_factory.hpp"
#include "golden_file.hpp"
#include "sim/json_report.hpp"
#include "sim/system.hpp"
#include "sim/workloads.hpp"
#include "trace/generator.hpp"
#include "trace/trace_file.hpp"

namespace memsched {
namespace {

constexpr std::uint64_t kTarget = 40'000;
constexpr std::uint64_t kWarmup = 4'000;

golden::File* const kGolden = golden::register_file(
    MEMSCHED_SNAPSHOT_GOLDEN_FILE,
    "# FNV-1a hashes of parked snapshots, one per checkpointed configuration.\n"
    "# Regenerate: MEMSCHED_UPDATE_GOLDEN=1 ./test_snapshot_pins\n",
    "the snapshot bytes drifted (a section's field order or widths changed)");

/// scheme, workload, prefetcher on, replayed streams, and the tick the run
/// parks at (before it finishes). gtest lists each test with its parameter
/// printed as raw bytes, so the case holds its names in place and has no
/// padding: a pointer member (std::string's) put a heap address into the
/// listed name, which then changed from one run to the next.
struct PinCase {
  std::array<char, 40> scheme{};
  std::array<char, 30> workload{};
  bool prefetch = false;
  bool replay = false;
  Tick stop_tick = 0;
};
static_assert(std::has_unique_object_representations_v<PinCase>,
              "padding would print indeterminate bytes into the test names");

PinCase pin_case(const char* scheme, const char* workload, bool prefetch, bool replay,
                 Tick stop_tick) {
  PinCase c;
  std::strncpy(c.scheme.data(), scheme, c.scheme.size() - 1);
  std::strncpy(c.workload.data(), workload, c.workload.size() - 1);
  c.prefetch = prefetch;
  c.replay = replay;
  c.stop_tick = stop_tick;
  return c;
}

std::string case_name(const PinCase& c) {
  std::string n = std::string(c.scheme.data()) + "_" + c.workload.data() +
                  (c.prefetch ? "_Prefetch" : "") + (c.replay ? "_Replay" : "");
  for (char& ch : n)
    if (ch == '-') ch = '_';
  return n;
}

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

/// A fresh system for `c`: the workload's synthetic streams, or replays of
/// fixed slices generated from the same application profiles.
std::unique_ptr<sim::MultiCoreSystem> make_system(const PinCase& c, sched::Scheduler& s) {
  const sim::Workload& w = sim::workload_by_name(c.workload.data());
  sim::SystemConfig cfg;
  cfg.audit.enabled = false;  // independent of MEMSCHED_VERIFY; checkpoints need it off
  cfg.engine = sim::Engine::kSkip;
  cfg.cores = w.cores();
  cfg.hierarchy.prefetch.enabled = c.prefetch;
  if (!c.replay) return std::make_unique<sim::MultiCoreSystem>(cfg, w.apps(), s, 42);

  // Replayed addresses need no region layout, so the caches start cold.
  cfg.warm_caches = false;
  const std::vector<trace::AppProfile> apps = w.apps();
  std::vector<std::unique_ptr<trace::InstStream>> streams;
  std::vector<double> dispatch;
  for (std::uint32_t core = 0; core < cfg.cores; ++core) {
    const trace::AppProfile& app = apps[core];
    trace::SyntheticStream gen(app, static_cast<Addr>(core) * cfg.region_bytes_per_core,
                               7 + core);
    // Shorter than warm-up + target, so the cursor has wrapped when parked.
    std::vector<trace::InstRecord> slice(12'000);
    for (trace::InstRecord& rec : slice) rec = gen.next();
    streams.push_back(std::make_unique<trace::ReplayStream>(std::move(slice)));
    dispatch.push_back(app.ilp_ipc);
  }
  return std::make_unique<sim::MultiCoreSystem>(cfg, std::move(streams), dispatch, s, 42);
}

class SnapshotPins : public ::testing::TestWithParam<PinCase> {
 protected:
  /// Runs the case on a fresh system under `policy`; the JSON report when
  /// the run completed, an empty string when it stopped.
  std::string run(const ckpt::CheckpointPolicy& policy) {
    const PinCase& c = GetParam();
    const sched::SchedulerPtr s =
        make_sched(c.scheme.data(), sim::workload_by_name(c.workload.data()).cores());
    const auto sys = make_system(c, *s);
    try {
      return sim::to_json(sys->run(kTarget, kWarmup, Tick{1} << 32, policy)).dump();
    } catch (const ckpt::CheckpointStop&) {
      return {};
    }
  }
};

TEST_P(SnapshotPins, ParkedSnapshotPinnedAndResumes) {
  const std::string path =
      testing::TempDir() + "memsched_pin_" + case_name(GetParam()) + ".ckpt";
  std::remove(path.c_str());
  ckpt::CheckpointPolicy park;
  park.path = path;
  park.stop_at_tick = GetParam().stop_tick;
  ASSERT_EQ(run(park), "") << "the run finished before the stop tick";

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  kGolden->check_or_record(
      "parked/" + case_name(GetParam()),
      golden::fnv1a_str({std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()}));

  ckpt::ResumeInfo info;
  ckpt::CheckpointPolicy resume;
  resume.path = path;
  resume.resume_info = &info;
  const std::string resumed = run(resume);
  EXPECT_TRUE(info.resumed) << info.error;
  EXPECT_EQ(resumed, run({})) << "the resumed run diverged";
  std::remove(path.c_str());
}

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> out;
  // Past the first system epoch (4096 ticks: STFM, ME-LREQ-ONLINE) and
  // several controller epochs (BLISS, TCM, CADS).
  for (const char* scheme :
       {"RR", "FQ", "STFM", "PAR-BS", "BLISS", "TCM", "CADS", "ME-LREQ-ONLINE"}) {
    out.push_back(pin_case(scheme, "4MEM-1", false, false, 5'111));
  }
  out.push_back(pin_case("ME-LREQ", "2MEM-1", /*prefetch=*/true, false, 5'111));
  // Mostly cache hits once the slices wrap, so this run is the shortest.
  out.push_back(pin_case("HF-RF", "2MEM-1", false, /*replay=*/true, 2'222));
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, SnapshotPins, ::testing::ValuesIn(pin_cases()),
                         [](const auto& pi) { return case_name(pi.param); });

}  // namespace
}  // namespace memsched
