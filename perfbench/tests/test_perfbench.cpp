// Tests of the benchmark itself: the scheduler decorator and the traced rigs
// must not change what the simulator computes, metric names must be
// well-formed, the digest check must catch a changed result, and span self
// time must subtract child spans.
#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
#include <set>

#include "cases.hpp"
#include "digest.hpp"
#include "metrics.hpp"
#include "rig.hpp"
#include "sim/json_report.hpp"
#include "sim/system.hpp"
#include "sim/workloads.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

using namespace memsched;

// Synthetic ME and alone-IPC tables: transparency does not depend on
// profiled values, and profiling would only slow the tests down.
sched::SchedulerPtr make(const std::string& scheme, std::uint32_t cores) {
  core::SchedulerArgs args;
  args.core_count = cores;
  std::vector<double> me;
  for (std::uint32_t c = 0; c < cores; ++c) {
    me.push_back(9.0 / (1.0 + c));
    args.ipc_single.push_back(2.0 / (1.0 + 0.2 * c));
  }
  args.me = core::MeTable(me);
  return core::make_scheduler(scheme, args);
}

std::string closed_run(const std::string& mix, const std::string& scheme, bool decorate,
                       Tracer* tracer) {
  const sim::Workload& w = sim::workload_by_name(mix);
  const sched::SchedulerPtr real = make(scheme, w.cores());
  TracedScheduler traced(*real, tracer);
  sched::Scheduler& used = decorate ? static_cast<sched::Scheduler&>(traced) : *real;
  sim::MultiCoreSystem sys(closed_config(w.cores(), sim::Engine::kSkip), w.apps(), used, 7);
  const sim::RunResult r = sys.run(4'000, 2'000);
  return sim::to_json(r).dump() + "|visited=" + std::to_string(r.visited_ticks);
}

std::string open_run(const std::string& scheme, bool decorate) {
  const OpenCase c{scheme, 0.2, 60'000};
  const sched::SchedulerPtr real = make(scheme, 4);
  TracedScheduler traced(*real, nullptr);
  sched::Scheduler& used = decorate ? static_cast<sched::Scheduler&>(traced) : *real;
  return open_loop_record(sim::run_open_loop(open_config(c, 11), used));
}

TEST(TracedScheduler, TransparentForEveryFig2SchemeClosedLoop) {
  Tracer tracer(1024);
  for (const std::string& scheme : fig2_schemes()) {
    SCOPED_TRACE(scheme);
    EXPECT_EQ(closed_run("4MIX-1", scheme, false, nullptr),
              closed_run("4MIX-1", scheme, true, &tracer));
  }
}

TEST(TracedScheduler, TransparentForEveryFig2SchemeOpenLoop) {
  for (const std::string& scheme : fig2_schemes()) {
    SCOPED_TRACE(scheme);
    EXPECT_EQ(open_run(scheme, false), open_run(scheme, true));
  }
}

TEST(TracedScheduler, CountsRoundsAndServes) {
  const sched::SchedulerPtr real = make("ME-LREQ", 4);
  TracedScheduler traced(*real, nullptr);
  const sim::OpenLoopResult r = sim::run_open_loop(open_config({"ME-LREQ", 0.2, 60'000}, 3), traced);
  EXPECT_GT(traced.rounds(), 0u);
  EXPECT_GT(traced.served(), 0u);
  EXPECT_GT(r.accepted_per_tick, 0.0);
}

// The rig must reproduce run() on every closed mix the benchmark uses.
TEST(ClosedRig, ReproducesRunOnEachClosedMix) {
  for (const ClosedCase& c : closed_exact_cases()) {
    SCOPED_TRACE(c.name());
    const sim::Workload& w = sim::workload_by_name(c.mix);
    const sim::SystemConfig cfg = closed_config(w.cores(), sim::Engine::kSkip);
    const sched::SchedulerPtr a = make(c.scheme, w.cores());
    sim::MultiCoreSystem sys(cfg, w.apps(), *a, 5);
    const sim::RunResult r = sys.run(5'000, 3'000);

    Tracer tracer(1 << 12);
    const sched::SchedulerPtr b = make(c.scheme, w.cores());
    TracedScheduler traced(*b, &tracer);
    const ClosedRigResult g = run_closed_rig(cfg, w.apps(), traced, 5, 5'000, 3'000, tracer);
    EXPECT_EQ(g.ticks, r.ticks);
    EXPECT_EQ(g.visited, r.visited_ticks);
    ASSERT_EQ(g.committed.size(), r.cores.size());
    for (std::size_t i = 0; i < r.cores.size(); ++i) EXPECT_EQ(g.committed[i], r.cores[i].committed);
    EXPECT_EQ(controller_stats_record(g.controller_stats),
              controller_stats_record(r.controller_stats));
    EXPECT_EQ(tracer.calls(Layer::kSimLoop), g.visited);
    EXPECT_GT(tracer.calls(Layer::kCpuFill), 0u);
  }
}

TEST(OpenRig, ReproducesRunOpenLoopAndCountsVisits) {
  for (const OpenCase& base : open_loop_cases()) {
    SCOPED_TRACE(base.name());
    const OpenCase c{base.scheme, base.load, 200'000};
    const sched::SchedulerPtr a = make(c.scheme, 4);
    const sim::OpenLoopResult r = sim::run_open_loop(open_config(c, 9), *a);
    Tracer tracer(1 << 12);
    const sched::SchedulerPtr b = make(c.scheme, 4);
    TracedScheduler traced(*b, &tracer);
    const OpenRigResult g = run_open_rig(open_config(c, 9), traced, tracer);
    EXPECT_EQ(open_loop_record(g.result), open_loop_record(r));
    EXPECT_GT(g.visited, 0u);
    EXPECT_LE(g.visited, g.ticks);
  }
}

TEST(Metrics, NamesWellFormedUniqueAndUnited) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& m : *defs) {
      EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
      EXPECT_TRUE(std::regex_match(m.unit, unit_re)) << m.name << " unit " << m.unit;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  EXPECT_EQ(end_to_end_metrics().front().name, std::string("setup_s"));
}

TEST(Digests, CheckFiresOnPerturbedResult) {
  const sim::Workload& w = sim::workload_by_name("2MEM-1");
  const sched::SchedulerPtr s = make("HF-RF", 2);
  sim::MultiCoreSystem sys(closed_config(2, sim::Engine::kSkip), w.apps(), *s, 3);
  sim::RunResult r = sys.run(3'000, 1'000);
  const std::string good = sim::to_json(r).dump();

  std::filesystem::create_directories(".bench_out");
  const std::string path = ".bench_out/selftest-digests.json";
  std::filesystem::remove(path);
  {
    Digests regen(path, true);
    regen.check("case", good);
    regen.save();
  }
  Digests check(path, false);
  EXPECT_TRUE(check.check("case", good));
  r.cores[0].dram_reads += 1;
  EXPECT_FALSE(check.check("case", sim::to_json(r).dump()));
  EXPECT_FALSE(check.check("missing-case", good));
  std::filesystem::remove(path);
}

TEST(Tracer, SelfTimesPartitionTheRootSpan) {
  Tracer t(8);
  t.begin(Layer::kSimLoop);
  t.begin(Layer::kMc);
  t.begin(Layer::kSched);
  t.end();
  t.end();
  t.begin(Layer::kCpu);
  t.end();
  t.end();
  ASSERT_EQ(t.spans().size(), 4u);
  const Span& root = t.spans()[0];
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(t.spans()[1].parent, 1u);  // mc inside the loop span
  EXPECT_EQ(t.spans()[2].parent, 2u);  // sched inside mc
  EXPECT_EQ(t.spans()[3].parent, 1u);
  EXPECT_DOUBLE_EQ(t.total_self_ns(), static_cast<double>(root.end_ns - root.start_ns));
  EXPECT_EQ(t.calls(Layer::kSched), 1u);
}

TEST(Seeds, SlotsCoverEverySeedDeterministically) {
  EXPECT_EQ(derive_seeds(3).eval, derive_seeds(3 + kHeldOutSlot).eval);
  EXPECT_NE(derive_seeds(3).eval, derive_seeds(4).eval);
  EXPECT_NE(derive_seeds(3).profile, derive_seeds(3).eval);
  // The held-out slot belongs to the held-out seed alone.
  EXPECT_EQ(derive_seeds(kHeldOutSeed).slot, kHeldOutSlot);
  for (const std::uint64_t s : {std::uint64_t{123456789}, kHeldOutSeed - 1, kHeldOutSeed + 1,
                                std::uint64_t{kHeldOutSlot}, std::uint64_t{kSeedSlots}}) {
    EXPECT_LT(derive_seeds(s).slot, kHeldOutSlot) << s;
  }
}

}  // namespace
}  // namespace perfbench
