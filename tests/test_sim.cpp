// Unit tests for src/sim: metrics, workload catalog, system configuration,
// the run protocol, and the parallel runner.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "harness/guarded_main.hpp"
#include "sched/policies.hpp"
#include "sim/experiment.hpp"
#include "sim/json_report.hpp"
#include "sim/metrics.hpp"
#include "sim/open_loop.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "sim/workloads.hpp"
#include "util/config.hpp"

namespace memsched::sim {
namespace {

// ------------------------------------------------------------- metrics ----

TEST(Metrics, SmtSpeedupSumsNormalizedIpc) {
  EXPECT_DOUBLE_EQ(smt_speedup({1.0, 2.0}, {2.0, 2.0}), 1.5);
  EXPECT_DOUBLE_EQ(smt_speedup({1.0}, {1.0}), 1.0);
}

TEST(Metrics, SlowdownsInvertRatios) {
  const auto s = slowdowns({1.0, 0.5}, {2.0, 2.0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[1], 4.0);
}

TEST(Metrics, UnfairnessIsMaxOverMinSlowdown) {
  EXPECT_DOUBLE_EQ(unfairness({1.0, 0.5}, {2.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(unfairness({1.0, 1.0}, {2.0, 2.0}), 1.0);  // perfectly fair
}

// ----------------------------------------------------------- workloads ----

TEST(Workloads, Table3Complete) {
  const auto& all = table3_workloads();
  EXPECT_EQ(all.size(), 36u);
  int n2 = 0, n4 = 0, n8 = 0, mem = 0;
  for (const auto& w : all) {
    EXPECT_EQ(w.codes.size(), w.cores());
    n2 += w.cores() == 2;
    n4 += w.cores() == 4;
    n8 += w.cores() == 8;
    mem += w.memory_intensive;
  }
  EXPECT_EQ(n2, 12);
  EXPECT_EQ(n4, 12);
  EXPECT_EQ(n8, 12);
  EXPECT_EQ(mem, 18);
}

TEST(Workloads, MemGroupsContainOnlyMemApps) {
  for (const auto& w : table3_workloads()) {
    if (!w.memory_intensive) continue;
    for (const auto& app : w.apps()) {
      EXPECT_TRUE(app.memory_intensive) << w.name << " contains " << app.name;
    }
  }
}

TEST(Workloads, MixGroupsContainBothClasses) {
  for (const auto& w : table3_workloads()) {
    if (w.memory_intensive) continue;
    bool any_mem = false, any_ilp = false;
    for (const auto& app : w.apps()) {
      (app.memory_intensive ? any_mem : any_ilp) = true;
    }
    EXPECT_TRUE(any_mem) << w.name;
    EXPECT_TRUE(any_ilp) << w.name;
  }
}

TEST(Workloads, PaperSpotChecks) {
  EXPECT_EQ(workload_by_name("2MEM-1").codes, "bc");
  EXPECT_EQ(workload_by_name("4MIX-2").codes, "hzde");
  EXPECT_EQ(workload_by_name("4MEM-5").codes, "qvce");
  EXPECT_EQ(workload_by_name("8MIX-1").codes, "arhzbcde");
}

TEST(Workloads, FilterByCoresAndType) {
  EXPECT_EQ(table3_workloads(4, "MEM").size(), 6u);
  EXPECT_EQ(table3_workloads(8, "MIX").size(), 6u);
  EXPECT_EQ(table3_workloads(2, "ALL").size(), 12u);
}

TEST(Workloads, LookupThrowsOnUnknown) {
  EXPECT_THROW(workload_by_name("9MEM-1"), std::invalid_argument);
}

TEST(Workloads, MakeCustomWorkload) {
  const Workload w = make_workload("mine", "bcde");
  EXPECT_EQ(w.cores(), 4u);
  EXPECT_TRUE(w.memory_intensive);  // all MEM codes
  EXPECT_EQ(w.apps()[1].name, "swim");
  const Workload mix = make_workload("mix", "ab");
  EXPECT_FALSE(mix.memory_intensive);  // gzip is ILP
  EXPECT_THROW(make_workload("bad", "b!"), std::invalid_argument);
  EXPECT_THROW(make_workload("empty", ""), std::invalid_argument);
}

TEST(Workloads, ResolveNameOrCodes) {
  EXPECT_EQ(resolve_workload("4MEM-1").codes, "bcde");
  const Workload w = resolve_workload("codes:kk");
  EXPECT_EQ(w.cores(), 2u);
  EXPECT_EQ(w.apps()[0].name, "mcf");
  EXPECT_THROW(resolve_workload("nope"), std::invalid_argument);
}

// --------------------------------------------------------------- config ---

TEST(SystemConfig, Table1DefaultsValidate) {
  const SystemConfig cfg;
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
  EXPECT_DOUBLE_EQ(cfg.cpu_hz(), 3.2e9);
  EXPECT_DOUBLE_EQ(cfg.bus_hz(), 4e8);
}

TEST(SystemConfig, RejectsRegionOverflow) {
  SystemConfig cfg;
  cfg.cores = 16;  // 16 x 512 MB > 4 GB
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(SystemConfig, RejectsRatioMismatch) {
  SystemConfig cfg;
  cfg.cpu_ratio = 4;  // hierarchy/controller still carry 8
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(SystemConfig, ApplySpeedGradeKeepsConfigConsistent) {
  SystemConfig cfg;
  cfg.apply_speed_grade(dram::SpeedGrade::ddr3_1600());
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
  EXPECT_EQ(cfg.cpu_ratio, 4u);
  EXPECT_EQ(cfg.controller.overhead_ticks, 12u);
  EXPECT_EQ(cfg.timing.tCL, 11u);
  EXPECT_DOUBLE_EQ(cfg.bus_hz(), 8e8);
}

TEST(SystemConfig, FasterGradeRunsFaster) {
  std::vector<trace::AppProfile> app{trace::spec2000_by_name("swim")};
  auto ipc_under = [&](const dram::SpeedGrade& g) {
    SystemConfig cfg;
    cfg.cores = 1;
    cfg.apply_speed_grade(g);
    sched::HitFirstReadFirstScheduler s;
    MultiCoreSystem sys(cfg, app, s, 5);
    return sys.run(40'000, 10'000).cores[0].ipc;
  };
  const double slow = ipc_under(dram::SpeedGrade::ddr2_400());
  const double fast = ipc_under(dram::SpeedGrade::ddr3_1600());
  EXPECT_GT(fast, slow * 1.05);
}

// --------------------------------------------------------------- runner ---

TEST(Runner, VisitsAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(100, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runner, SingleThreadFallback) {
  int sum = 0;
  parallel_for(10, 1, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(Runner, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(8, 4, [](std::size_t i) {
        if (i == 3) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(Runner, ZeroJobsIsNoop) {
  parallel_for(0, 4, [](std::size_t) { FAIL(); });
}

TEST(Runner, NestedCallRunsInline) {
  constexpr std::size_t kOuter = 4, kInner = 8;
  std::vector<std::thread::id> outer(kOuter);
  std::vector<std::vector<std::thread::id>> inner(kOuter,
                                                  std::vector<std::thread::id>(kInner));
  parallel_for(kOuter, 4, [&](std::size_t o) {
    outer[o] = std::this_thread::get_id();
    parallel_for(kInner, 4, [&](std::size_t i) { inner[o][i] = std::this_thread::get_id(); });
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_NE(outer[o], std::this_thread::get_id()) << "outer job " << o << " ran inline";
    for (std::size_t i = 0; i < kInner; ++i)
      EXPECT_EQ(inner[o][i], outer[o]) << "inner job " << i << " of outer job " << o;
  }
}

TEST(Runner, SharedHostSplitsDefaultThreadCount) {
  const unsigned all = default_thread_count();
  share_host(2);
  EXPECT_EQ(default_thread_count(), std::max(1u, all / 2));
  share_host(all + 1);  // more processes than threads: still one each
  EXPECT_EQ(default_thread_count(), 1u);
  share_host(1);
  EXPECT_EQ(default_thread_count(), all);
}

// --------------------------------------------------------- run protocol ---

std::vector<trace::AppProfile> two_apps() {
  return {trace::spec2000_by_name("swim"), trace::spec2000_by_name("gzip")};
}

TEST(System, DeterministicForSeed) {
  SystemConfig cfg;
  cfg.cores = 2;
  sched::HitFirstReadFirstScheduler s1, s2;
  MultiCoreSystem a(cfg, two_apps(), s1, 99);
  MultiCoreSystem b(cfg, two_apps(), s2, 99);
  const RunResult ra = a.run(30'000, 5'000);
  const RunResult rb = b.run(30'000, 5'000);
  EXPECT_EQ(ra.ticks, rb.ticks);
  for (std::uint32_t c = 0; c < 2; ++c) {
    EXPECT_DOUBLE_EQ(ra.cores[c].ipc, rb.cores[c].ipc);
    EXPECT_EQ(ra.cores[c].dram_reads, rb.cores[c].dram_reads);
  }
}

TEST(System, DifferentSeedsDiffer) {
  SystemConfig cfg;
  cfg.cores = 2;
  sched::HitFirstReadFirstScheduler s1, s2;
  MultiCoreSystem a(cfg, two_apps(), s1, 1);
  MultiCoreSystem b(cfg, two_apps(), s2, 2);
  EXPECT_NE(a.run(30'000, 5'000).cores[0].dram_reads,
            b.run(30'000, 5'000).cores[0].dram_reads);
}

TEST(System, EveryCoreCommitsTarget) {
  SystemConfig cfg;
  cfg.cores = 2;
  sched::HitFirstReadFirstScheduler s;
  MultiCoreSystem sys(cfg, two_apps(), s, 7);
  const RunResult r = sys.run(25'000, 5'000);
  EXPECT_FALSE(r.hit_tick_limit);
  for (const auto& c : r.cores) {
    EXPECT_GE(c.committed, 30'000u);  // warmup + target
    EXPECT_GT(c.ipc, 0.0);
    EXPECT_LT(c.ipc, 4.0);
  }
}

TEST(System, TickLimitReported) {
  SystemConfig cfg;
  cfg.cores = 2;
  sched::HitFirstReadFirstScheduler s;
  MultiCoreSystem sys(cfg, two_apps(), s, 7);
  const RunResult r = sys.run(1'000'000'000, 0, /*max_ticks=*/500);
  EXPECT_TRUE(r.hit_tick_limit);
}

TEST(System, BandwidthAccountingConsistent) {
  SystemConfig cfg;
  cfg.cores = 2;
  sched::HitFirstReadFirstScheduler s;
  MultiCoreSystem sys(cfg, two_apps(), s, 13);
  const RunResult r = sys.run(40'000, 5'000);
  std::uint64_t bytes = 0;
  for (const auto& c : r.cores) bytes += (c.dram_reads + c.dram_writes) * 64;
  EXPECT_GT(r.bandwidth_gbs, 0.0);
  EXPECT_LT(r.bandwidth_gbs, cfg.org.peak_bandwidth_gbs());
  EXPECT_GT(bytes, 0u);
}

TEST(System, WarmupSuppressesColdMisses) {
  // With warm_caches + warmup phase, a light app (gzip) must show near-zero
  // DRAM traffic in the measured window; cold-started it shows hundreds of
  // compulsory misses.
  SystemConfig warm_cfg;
  warm_cfg.cores = 1;
  std::vector<trace::AppProfile> app{trace::spec2000_by_name("eon")};
  sched::HitFirstReadFirstScheduler s1;
  MultiCoreSystem warm(warm_cfg, app, s1, 3);
  const RunResult rw = warm.run(50'000, 20'000);

  SystemConfig cold_cfg = warm_cfg;
  cold_cfg.warm_caches = false;
  sched::HitFirstReadFirstScheduler s2;
  MultiCoreSystem cold(cold_cfg, app, s2, 3);
  const RunResult rc = cold.run(50'000, 0);

  EXPECT_LT(rw.cores[0].dram_reads * 10, rc.cores[0].dram_reads + 10);
}

TEST(System, RejectsMismatchedApps) {
  SystemConfig cfg;
  cfg.cores = 2;
  sched::HitFirstReadFirstScheduler s;
  EXPECT_DEATH_IF_SUPPORTED(
      { MultiCoreSystem sys(cfg, {trace::spec2000_by_name("swim")}, s, 1); }, "");
}

TEST(System, SecondRunIsRefusedAsInternalError) {
  // Every run starts its clock at tick 0, so a second run() on one system
  // would re-simulate time over already-advanced state and report garbage
  // (core-0 IPC 0.491 -> 0.014 when it was allowed). It is a programming
  // error: std::logic_error, exit category "internal" (not "usage").
  for (const Engine engine : {Engine::kSkip, Engine::kSampled}) {
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.engine = engine;
    cfg.sampling.intervals = 2;
    cfg.sampling.interval_insts = 1'000;
    cfg.sampling.warmup_insts = 500;
    sched::HitFirstReadFirstScheduler s;
    MultiCoreSystem sys(cfg, two_apps(), s, 7);
    sys.run(5'000, 0);
    try {
      sys.run(200, 0);
      ADD_FAILURE() << engine_name(engine) << ": a second run() returned a result";
    } catch (const std::logic_error&) {
      EXPECT_EQ(harness::classify_current_exception().category, "internal")
          << engine_name(engine);
    }
  }
}

// ------------------------------------------------------------ open loop ---

TEST(OpenLoop, LowLoadLatencyNearDeviceMinimum) {
  sim::OpenLoopConfig cfg;
  cfg.inject_per_tick = 0.02;
  cfg.measure_ticks = 20'000;
  sched::HitFirstReadFirstScheduler s;
  const sim::OpenLoopResult r = run_open_loop(cfg, s);
  EXPECT_FALSE(r.saturated());
  // Uncontended close-page read: overhead + tRCD + tCL + burst ~ 18 ticks.
  EXPECT_GT(r.avg_read_latency_ticks, 15.0);
  EXPECT_LT(r.avg_read_latency_ticks, 30.0);
}

TEST(OpenLoop, LatencyGrowsWithLoad) {
  sched::HitFirstReadFirstScheduler s;
  double prev = 0.0;
  for (const double load : {0.05, 0.25, 0.55}) {
    sim::OpenLoopConfig cfg;
    cfg.inject_per_tick = load;
    cfg.measure_ticks = 20'000;
    const sim::OpenLoopResult r = run_open_loop(cfg, s);
    EXPECT_GT(r.avg_read_latency_ticks, prev);
    prev = r.avg_read_latency_ticks;
  }
}

TEST(OpenLoop, OverloadSaturates) {
  sim::OpenLoopConfig cfg;
  cfg.inject_per_tick = 2.0;  // far beyond 2 channels' capacity
  cfg.measure_ticks = 20'000;
  sched::HitFirstReadFirstScheduler s;
  const sim::OpenLoopResult r = run_open_loop(cfg, s);
  EXPECT_TRUE(r.saturated());
  EXPECT_LT(r.accepted_per_tick, 1.2);
}

TEST(OpenLoop, AcceptedNeverExceedsOffered) {
  sched::LeastRequestScheduler s;
  for (const double load : {0.1, 0.6, 1.5}) {
    sim::OpenLoopConfig cfg;
    cfg.inject_per_tick = load;
    cfg.measure_ticks = 10'000;
    const sim::OpenLoopResult r = run_open_loop(cfg, s);
    EXPECT_LE(r.accepted_per_tick, r.offered_per_tick + 1e-9);
    EXPECT_GT(r.accepted_per_tick, 0.0);
  }
}

TEST(OpenLoop, SequentialRunsProduceRowHitsUnderLoad) {
  sim::OpenLoopConfig cfg;
  cfg.inject_per_tick = 0.5;
  cfg.seq_run_lines = 32.0;
  cfg.measure_ticks = 20'000;
  sched::HitFirstReadFirstScheduler s;
  const sim::OpenLoopResult r = run_open_loop(cfg, s);
  EXPECT_GT(r.row_hit_rate, 0.3);
}

// ---------------------------------------------------------- json report ---

TEST(JsonReport, RunResultSerializesKeyFields) {
  SystemConfig cfg;
  cfg.cores = 2;
  sched::HitFirstReadFirstScheduler s;
  MultiCoreSystem sys(cfg, two_apps(), s, 3);
  const RunResult r = sys.run(20'000, 5'000);
  const std::string j = to_json(r).dump(-1);
  EXPECT_NE(j.find("\"avg_read_latency_cpu\""), std::string::npos);
  EXPECT_NE(j.find("\"dram_energy\""), std::string::npos);
  EXPECT_NE(j.find("\"cores\":[{"), std::string::npos);
  EXPECT_NE(j.find("\"row_hits\""), std::string::npos);
}

TEST(JsonReport, SystemConfigSerializesTable1) {
  const std::string j = to_json(SystemConfig{}).dump(-1);
  EXPECT_NE(j.find("\"channels\":2"), std::string::npos);
  EXPECT_NE(j.find("\"buffer_entries\":64"), std::string::npos);
  EXPECT_NE(j.find("\"interleave\":\"hybrid-interleave\""), std::string::npos);
  EXPECT_NE(j.find("\"page_policy\":\"close\""), std::string::npos);
}

TEST(JsonReport, WorkloadRunSerializesMetrics) {
  ExperimentConfig cfg;
  cfg.profile_insts = 50'000;
  cfg.eval_insts = 20'000;
  cfg.warmup_insts = 5'000;
  cfg.eval_repeats = 1;
  Experiment exp(cfg);
  const WorkloadRun r = exp.run(workload_by_name("2MEM-1"), "LREQ");
  const std::string j = to_json(r).dump(-1);
  EXPECT_NE(j.find("\"workload\":\"2MEM-1\""), std::string::npos);
  EXPECT_NE(j.find("\"scheme\":\"LREQ\""), std::string::npos);
  EXPECT_NE(j.find("\"smt_speedup\""), std::string::npos);
  EXPECT_NE(j.find("\"ipc_multi\":["), std::string::npos);
}

// ----------------------------------------------------------- experiment ---

TEST(Experiment, ReadKeysKeepsAbsentKeysAndAppliesGradeBeforeRefresh) {
  ExperimentConfig cfg;
  cfg.eval_insts = 12'345;  // a front end's own default
  util::Config cli;
  cli.set("seed", "7");
  cli.set("refresh", "1");
  cli.set("grade", "DDR2-533");
  cli.set("interleave", "line");
  read_experiment_keys(cli, cfg);
  EXPECT_EQ(cfg.eval_insts, 12'345u);
  EXPECT_EQ(cfg.eval_seed, 7u);
  EXPECT_EQ(cfg.profile_seed, ExperimentConfig{}.profile_seed);
  EXPECT_EQ(cfg.base.interleave, dram::Interleave::kLineInterleave);
  EXPECT_EQ(cfg.base.cpu_ratio, dram::SpeedGrade::by_name("DDR2-533").cpu_ratio);
  EXPECT_TRUE(cfg.base.timing.refresh_enabled) << "grade= must not undo refresh=";

  for (const auto& [key, value] : {std::pair{"interleave", "pgae"}, {"engine", "fast"},
                                   {"grade", "DDR9"}, {"repeats", "-1"}}) {
    util::Config bad;
    bad.set(key, value);
    EXPECT_THROW(read_experiment_keys(bad, cfg), std::invalid_argument) << key;
  }
}

TEST(Experiment, ProfileCachesAcrossCalls) {
  ExperimentConfig cfg;
  cfg.profile_insts = 50'000;
  cfg.warmup_insts = 10'000;
  Experiment exp(cfg);
  const auto& a = exp.profile("gzip");
  const auto& b = exp.profile("gzip");
  EXPECT_EQ(&a, &b);  // same cached object
  EXPECT_GT(a.memory_efficiency, 0.0);
}

TEST(Experiment, MeTableMatchesWorkloadOrder) {
  ExperimentConfig cfg;
  cfg.profile_insts = 50'000;
  cfg.warmup_insts = 10'000;
  Experiment exp(cfg);
  const Workload& w = workload_by_name("2MIX-1");  // gzip + wupwise
  const core::MeTable t = exp.me_table_for(w);
  ASSERT_EQ(t.core_count(), 2u);
  EXPECT_DOUBLE_EQ(t.me(0), exp.profile("gzip").memory_efficiency);
  EXPECT_DOUBLE_EQ(t.me(1), exp.profile("wupwise").memory_efficiency);
  // gzip is far more memory-efficient than wupwise.
  EXPECT_GT(t.me(0), t.me(1));
}

TEST(Experiment, ConcurrentReferencesMatchSerialBits) {
  // Four threads ask for overlapping apps and seeds of one table: each key
  // is simulated once, and every result has the bits of a serial run.
  ExperimentConfig cfg;
  cfg.profile_insts = 20'000;
  cfg.eval_insts = 10'000;
  cfg.warmup_insts = 5'000;
  const std::vector<std::string> apps = {"gzip", "swim", "mcf", "gzip",
                                         "swim", "gzip", "art", "mcf"};
  const std::vector<std::uint64_t> seeds = {cfg.eval_seed, cfg.eval_seed + 7};
  struct Bits {
    std::uint64_t me, alone;
  };
  const auto bits_of = [&](Experiment& exp, std::size_t i) {
    const std::string& app = apps[i / seeds.size()];
    const std::uint64_t seed = seeds[i % seeds.size()];
    return Bits{std::bit_cast<std::uint64_t>(exp.profile(app).memory_efficiency),
                std::bit_cast<std::uint64_t>(exp.single_ipc(app, seed))};
  };
  const std::size_t n = apps.size() * seeds.size();

  Experiment serial(cfg);
  std::vector<Bits> expected(n);
  for (std::size_t i = 0; i < n; ++i) expected[i] = bits_of(serial, i);

  const std::uint64_t before = ReferenceTable::simulations();
  Experiment concurrent(cfg);
  std::vector<Bits> got(n);
  parallel_for(n, 4, [&](std::size_t i) { got[i] = bits_of(concurrent, i); });
  // 4 distinct apps: 4 profiling runs and 4 x 2 alone runs.
  EXPECT_EQ(ReferenceTable::simulations() - before, 12u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].me, expected[i].me) << i;
    EXPECT_EQ(got[i].alone, expected[i].alone) << i;
  }

  // compute_references fills a shared table with the same bits.
  const auto refs = std::make_shared<ReferenceTable>();
  cfg.eval_repeats = 1;
  const std::uint64_t filling = ReferenceTable::simulations();
  Experiment(cfg, refs).compute_references({workload_by_name("2MEM-1")}, 4);
  const std::uint64_t settled = ReferenceTable::simulations();
  EXPECT_EQ(settled - filling, 4u);  // wupwise and swim: profiling + one alone run
  Experiment reader(cfg, refs);
  const Bits& swim = expected[1 * seeds.size()];  // apps[1] at seeds[0]
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.profile("swim").memory_efficiency),
            swim.me);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.single_ipc("swim")), swim.alone);
  EXPECT_EQ(ReferenceTable::simulations(), settled);
}

TEST(Experiment, RunProducesSaneAggregates) {
  ExperimentConfig cfg;
  cfg.profile_insts = 50'000;
  cfg.eval_insts = 30'000;
  cfg.warmup_insts = 10'000;
  cfg.eval_repeats = 2;
  Experiment exp(cfg);
  const WorkloadRun r = exp.run(workload_by_name("2MEM-1"), "ME-LREQ");
  EXPECT_EQ(r.scheme, "ME-LREQ");
  EXPECT_EQ(r.ipc_multi.size(), 2u);
  EXPECT_GT(r.smt_speedup, 0.5);
  EXPECT_LT(r.smt_speedup, 2.1);
  EXPECT_GE(r.unfairness, 1.0);
  EXPECT_GT(r.avg_read_latency_cpu, 100.0);
}

}  // namespace
}  // namespace memsched::sim
