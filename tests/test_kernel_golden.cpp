// Kernel golden pins: what the report goldens cannot see.
//
// The JSON report leaves out visited_ticks, so the soa and sampled goldens
// would not notice a changed skip cadence, and no other suite pins the bytes
// of a checkpoint. This suite records, for closed-loop runs:
//   * `ticks` and `visited_ticks` under the cycle, skip and sampled engines,
//     with fault injection on and off (the sampled engine rejects fault
//     injection, so its runs vary the progress watchdog instead, whose poll
//     boundaries clamp every skip jump);
//   * the FNV-1a hash of the snapshot file parked at a fixed stop tick, of
//     the last periodic snapshot before an unsaved stop, and of the finished
//     snapshot. Unchanged snapshot bytes are what lets ckpt::kVersion (which
//     the result cache checks too) stay put.
// Tick counts are stored as they are, in hex; snapshots as their hash.
//
// Regenerate only for a deliberate change:
//   MEMSCHED_UPDATE_GOLDEN=1 ./tests/test_kernel_golden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "ckpt/policy.hpp"
#include "core/scheduler_factory.hpp"
#include "golden_file.hpp"
#include "sim/system.hpp"
#include "sim/workloads.hpp"

namespace memsched {
namespace {

constexpr std::uint64_t kTarget = 20'000;
constexpr std::uint64_t kWarmup = 4'000;

golden::File* const kGolden = golden::register_file(
    MEMSCHED_KERNEL_GOLDEN_FILE,
    "# Golden tick counts (hex) and FNV-1a snapshot hashes of closed-loop runs.\n"
    "# Regenerate: MEMSCHED_UPDATE_GOLDEN=1 ./test_kernel_golden\n",
    "the simulation kernel drifted (visited ticks or snapshot bytes)");

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

const char* label(sim::Engine e) {
  switch (e) {
    case sim::Engine::kCycle: return "Cycle";
    case sim::Engine::kSkip: return "Skip";
    case sim::Engine::kSampled: return "Sampled";
  }
  return "?";
}

sim::SystemConfig config(sim::Engine engine, std::uint32_t cores, bool fault, bool watchdog) {
  sim::SystemConfig cfg;
  cfg.audit.enabled = false;  // independent of MEMSCHED_VERIFY; checkpoints need it off
  cfg.engine = engine;
  cfg.cores = cores;
  cfg.sampling.intervals = 4;
  cfg.sampling.interval_insts = 2'500;
  cfg.sampling.warmup_insts = 1'500;
  if (!watchdog) cfg.progress_window_ticks = 0;
  if (fault) {
    // Delay/dup/stall only: a dropped read would park a core forever.
    cfg.fault.enabled = true;
    cfg.fault.seed = 99;
    cfg.fault.dup_prob = 0.01;
    cfg.fault.delay_prob = 0.03;
    cfg.fault.stall_prob = 0.001;
  }
  return cfg;
}

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return golden::fnv1a_str(
      {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()});
}

// ------------------------------------------------------ visited ticks -----

/// engine, scheme, workload, fault injection, progress watchdog
using TickCase = std::tuple<sim::Engine, std::string, std::string, bool, bool>;

std::string tick_case_name(const TickCase& c) {
  const auto& [engine, scheme, workload, fault, watchdog] = c;
  std::string n = std::string(label(engine)) + "_" + scheme + "_" + workload +
                  (fault ? "_Fault" : "") + (watchdog ? "" : "_NoWatchdog");
  for (char& ch : n)
    if (ch == '-') ch = '_';
  return n;
}

class KernelTicks : public ::testing::TestWithParam<TickCase> {};

TEST_P(KernelTicks, TicksAndVisitedTicksPinned) {
  const auto& [engine, scheme, workload, fault, watchdog] = GetParam();
  const sim::Workload& w = sim::workload_by_name(workload);
  const sched::SchedulerPtr s = make_sched(scheme, w.cores());
  sim::MultiCoreSystem sys(config(engine, w.cores(), fault, watchdog), w.apps(), *s, 42);
  const sim::RunResult r = sys.run(kTarget, kWarmup, Tick{1} << 32);
  ASSERT_FALSE(r.hit_tick_limit);
  const std::string key = tick_case_name(GetParam());
  kGolden->check_or_record(key + "/ticks", r.ticks);
  kGolden->check_or_record(key + "/visited_ticks", r.visited_ticks);
}

std::vector<TickCase> tick_cases() {
  std::vector<TickCase> out;
  for (const sim::Engine e : {sim::Engine::kCycle, sim::Engine::kSkip}) {
    for (const bool fault : {false, true}) {
      out.emplace_back(e, "ME-LREQ", "2MEM-1", fault, true);
      out.emplace_back(e, "BLISS", "4MIX-1", fault, true);
      out.emplace_back(e, "STFM", "2MEM-2", fault, true);
      out.emplace_back(e, "HF-RF", "2MIX-1", fault, true);
    }
  }
  out.emplace_back(sim::Engine::kSkip, "ME-LREQ", "2MEM-1", false, false);
  out.emplace_back(sim::Engine::kSkip, "BLISS", "4MIX-1", false, false);
  out.emplace_back(sim::Engine::kSkip, "HF-RF", "2MIX-1", false, false);
  for (const bool watchdog : {true, false}) {
    out.emplace_back(sim::Engine::kSampled, "ME-LREQ", "2MEM-1", false, watchdog);
    out.emplace_back(sim::Engine::kSampled, "BLISS", "4MIX-1", false, watchdog);
    out.emplace_back(sim::Engine::kSampled, "STFM", "2MEM-2", false, watchdog);
    out.emplace_back(sim::Engine::kSampled, "HF-RF", "2MIX-1", false, watchdog);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, KernelTicks, ::testing::ValuesIn(tick_cases()),
                         [](const auto& pi) { return tick_case_name(pi.param); });

// -------------------------------------------------------- snapshots -----

/// engine, fault injection
using SnapCase = std::tuple<sim::Engine, bool>;

class KernelSnapshot : public ::testing::TestWithParam<SnapCase> {
 protected:
  /// Runs 2MEM-1/ME-LREQ under `policy` on a fresh system; true when the
  /// run completed, false when it stopped.
  bool run(const ckpt::CheckpointPolicy& policy) {
    const auto& [engine, fault] = GetParam();
    const sim::Workload& w = sim::workload_by_name("2MEM-1");
    const sched::SchedulerPtr s = make_sched("ME-LREQ", w.cores());
    sim::MultiCoreSystem sys(config(engine, w.cores(), fault, true), w.apps(), *s, 42);
    try {
      sys.run(kTarget, kWarmup, Tick{1} << 32, policy);
    } catch (const ckpt::CheckpointStop&) {
      return false;
    }
    return true;
  }

  [[nodiscard]] std::string key(const char* what) const {
    const auto& [engine, fault] = GetParam();
    return std::string("snapshot/") + label(engine) + (fault ? "_Fault" : "") + "/" +
           what;
  }

  [[nodiscard]] std::string path(const char* what) const {
    const auto& [engine, fault] = GetParam();
    const std::string p = testing::TempDir() + "memsched_kernel_" + label(engine) +
                          (fault ? "_fault_" : "_") + what + ".ckpt";
    std::remove(p.c_str());
    return p;
  }
};

TEST_P(KernelSnapshot, ParkedAtStopTick) {
  ckpt::CheckpointPolicy p;
  p.path = path("parked");
  p.stop_at_tick = 1'777;  // mid-measurement: the full run spans ~2.2k ticks
  ASSERT_FALSE(run(p));
  kGolden->check_or_record(key("parked"), file_hash(p.path));
}

TEST_P(KernelSnapshot, LastPeriodicBeforeUnsavedStop) {
  ckpt::CheckpointPolicy p;
  p.path = path("periodic");
  p.interval_ticks = 500;
  p.stop_at_tick = 1'777;
  p.save_on_stop = false;
  ASSERT_FALSE(run(p));
  kGolden->check_or_record(key("periodic"), file_hash(p.path));
}

TEST_P(KernelSnapshot, Finished) {
  ckpt::CheckpointPolicy p;
  p.path = path("finished");
  ASSERT_TRUE(run(p));
  kGolden->check_or_record(key("finished"), file_hash(p.path));
}

INSTANTIATE_TEST_SUITE_P(Grid, KernelSnapshot,
                         ::testing::Combine(::testing::Values(sim::Engine::kCycle,
                                                              sim::Engine::kSkip),
                                            ::testing::Bool()),
                         [](const auto& pi) {
                           return std::string(label(std::get<0>(pi.param))) +
                                  (std::get<1>(pi.param) ? "_Fault" : "");
                         });

}  // namespace
}  // namespace memsched
