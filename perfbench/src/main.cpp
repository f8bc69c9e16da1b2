// perfbench — the memsched benchmark driver.
//
//   perfbench --workload <closed-exact|open-loop|sampled|sweep> --seed N
//             --seconds S --trace 0|1 [--data DIR] [--out DIR]
//       Runs one workload and prints, as the last line of stdout, one JSON
//       object {correct, attempted, failed, metrics}. --trace 0 times the
//       real entry points and reports the end-to-end metrics; --trace 1
//       runs the traced rigs and reports the per-layer metrics.
//   perfbench --mode regen
//       Recomputes the digests of every exact case for every seed slot,
//       names the cases whose digest changed, and rewrites DIR/digests.json.
//   perfbench --mode reference
//       Recomputes the exact-engine references of the sampled cases for
//       every seed slot into DIR/sampled_reference.json.
//
// One workload per process, so that the peak RSS belongs to that workload.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "cases.hpp"
#include "digest.hpp"
#include "harness/grid.hpp"
#include "harness/orchestrator.hpp"
#include "metrics.hpp"
#include "rig.hpp"
#include "sim/json_report.hpp"
#include "sim/open_loop.hpp"
#include "sim/system.hpp"
#include "sim/workloads.hpp"
#include "tracer.hpp"
#include "util/json.hpp"
#include "util/wallclock.hpp"

namespace {

using namespace memsched;
using namespace perfbench;

constexpr int kSetupReps = 7;
constexpr std::size_t kSpanLogCapacity = 1 << 16;
constexpr std::uint32_t kSweepJobs = 2;

struct Options {
  std::optional<Workload> workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string mode = "run";
  std::string data_dir = "perfbench/data";
  std::string out_dir = ".bench_out";
};

double since(util::MonotonicTime t0) {
  return util::seconds_between(t0, util::monotonic_now());
}

/// Result of one benchmark process: the contract's last stdout line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void fail(const std::string& what, std::uint64_t count = 1) {
    failed += count;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }

  void print(const std::vector<MetricDef>& defs) const {
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[512];
    for (std::size_t i = 0; i < defs.size(); ++i) {
      // A metric the workload does not exercise reads 0; a non-finite one
      // was counted as a failure and reads 0 too (JSON has no NaN).
      const auto it = values.find(defs[i].name);
      const double v = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, v, defs[i].unit);
      out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }
};

/// Peak resident set of this process and of its largest reaped child, MB.
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

std::string digests_path(const Options& o) { return o.data_dir + "/digests.json"; }
std::string reference_path(const Options& o) { return o.data_dir + "/sampled_reference.json"; }

/// One case's work per run (deterministic for a seed) and its run times.
struct CaseTimes {
  double work = 0.0;  ///< instructions (open loop: requests) one run commits
  std::vector<double> seconds;
};

/// Quantile of the run times a rate is computed from. Other tenants of the
/// host slow runs down in phases lasting seconds and never speed one up, so
/// the lower decile is the steadiest estimate of the simulator's own speed.
constexpr double kSteadyQuantile = 0.10;

/// Σ work / Σ each case's lower-decile run time, in millions per second.
double steady_rate_m(const std::vector<CaseTimes>& cases) {
  double work = 0.0, seconds = 0.0;
  for (const CaseTimes& c : cases) {
    work += c.work;
    seconds += percentile(c.seconds, kSteadyQuantile);
  }
  return work / seconds / 1e6;
}

/// Scheduler call counts summed over every TracedScheduler of a run.
struct SchedCounts {
  std::uint64_t rounds = 0, priority_calls = 0, served = 0, epoch_calls = 0;

  void add(const TracedScheduler& ts) {
    rounds += ts.rounds();
    priority_calls += ts.priority_calls();
    served += ts.served();
    epoch_calls += ts.epoch_calls();
  }
};

/// A workload's set-up, repeated kSetupReps times per run. The first
/// repetition precedes the first timed operation; the others are spread
/// evenly over the timed phase, so that their median does not hinge on how
/// fast the host happened to be during one second of the run.
class SetupSchedule {
 public:
  SetupSchedule(double seconds, std::function<void()> setup)
      : seconds_(seconds), setup_(std::move(setup)) {}

  /// Runs the set-up if the next repetition is due `elapsed` seconds into
  /// the timed phase.
  void run_if_due(double elapsed) {
    const double due = seconds_ * static_cast<double>(times_.size()) / kSetupReps;
    if (times_.size() >= kSetupReps || elapsed < due) return;
    const auto t0 = util::monotonic_now();
    setup_();
    times_.push_back(since(t0));
  }

  /// Runs the repetitions the timed phase left over; returns the median.
  double finish() {
    while (times_.size() < kSetupReps) run_if_due(seconds_);
    return median(times_);
  }

 private:
  double seconds_;
  std::function<void()> setup_;
  std::vector<double> times_;
};

// --- closed loop (closed-exact and sampled) ---------------------------------

/// Set-up of a closed-loop workload: profile every application's ME and
/// build (then drop) each case's system, L2 warm-up included.
std::unique_ptr<SchemeFactory> setup_closed(const Seeds& seeds,
                                            const std::vector<ClosedCase>& cases,
                                            sim::Engine engine) {
  auto f = std::make_unique<SchemeFactory>(seeds.profile);
  for (const ClosedCase& c : cases) {
    const sim::Workload& w = sim::workload_by_name(c.mix);
    const sched::SchedulerPtr s = f->make(c.scheme, c.mix);
    const sim::MultiCoreSystem sys(closed_config(w.cores(), engine), w.apps(), *s,
                                   seeds.eval);
  }
  return f;
}

struct CaseRun {
  sim::RunResult result;
  double run_s = 0.0;  ///< MultiCoreSystem::run only; construction excluded
};

/// One closed-loop case on a fresh system (run() restarts the tick at 0, so
/// a system is never run twice). With a tracer, the scheduler is wrapped in
/// a TracedScheduler whose counts are added to `sched_counts`.
CaseRun run_closed_case(SchemeFactory& f, const ClosedCase& c, sim::Engine engine,
                        std::uint64_t seed, Tracer* tracer = nullptr,
                        SchedCounts* sched_counts = nullptr) {
  const sim::Workload& w = sim::workload_by_name(c.mix);
  const sched::SchedulerPtr real = f.make(c.scheme, c.mix);
  TracedScheduler traced(*real, tracer);
  sched::Scheduler& used = tracer != nullptr ? traced : *real;
  sim::MultiCoreSystem sys(closed_config(w.cores(), engine), w.apps(), used, seed);
  const auto t0 = util::monotonic_now();
  CaseRun out{sys.run(c.target_insts, kWarmupInsts), 0.0};
  out.run_s = since(t0);
  if (sched_counts != nullptr) sched_counts->add(traced);
  return out;
}

bool sampled_valid(const sim::RunResult& r) {
  const sim::SamplingStats& s = r.sampling;
  if (!s.enabled || r.hit_tick_limit || s.intervals_measured != sim::SamplingConfig{}.intervals)
    return false;
  std::vector<const sim::MetricEstimate*> all = {&s.total_ipc,     &s.read_latency_cpu,
                                                 &s.row_hit_rate,  &s.bandwidth_gbs,
                                                 &s.bus_utilization, &s.ipc_ratio};
  for (const sim::MetricEstimate& e : s.core_ipc) all.push_back(&e);
  return std::all_of(all.begin(), all.end(), [](const sim::MetricEstimate* e) {
    return std::isfinite(e->mean) && std::isfinite(e->ci95);
  });
}

void timed_closed(const Options& o, Report& rep) {
  const bool sampled = *o.workload == Workload::kSampled;
  const sim::Engine engine = sampled ? sim::Engine::kSampled : sim::Engine::kSkip;
  const std::vector<ClosedCase>& cases = sampled ? sampled_cases() : closed_exact_cases();
  const Seeds seeds = derive_seeds(o.seed);
  Digests digests(digests_path(o), false);

  std::unique_ptr<SchemeFactory> f;
  SetupSchedule setup(o.seconds, [&] { f = setup_closed(seeds, cases, engine); });
  setup.run_if_due(0.0);

  std::vector<CaseTimes> times(cases.size());
  const auto start = util::monotonic_now();
  do {
    setup.run_if_due(since(start));
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const ClosedCase& c = cases[i];
      const CaseRun run = run_closed_case(*f, c, engine, seeds.eval);
      const sim::RunResult& r = run.result;
      const double dt = run.run_s;
      ++rep.attempted;
      times[i].seconds.push_back(dt);
      times[i].work = 0.0;
      for (const sim::CoreResult& cr : r.cores) times[i].work += static_cast<double>(cr.committed);
      const std::string key = expectation_key(workload_name(*o.workload), c.name(), seeds.slot);
      std::fprintf(stderr, "perfbench: %s %.3f s\n", key.c_str(), dt);
      if (sampled ? !sampled_valid(r) : (r.hit_tick_limit ||
                                         !digests.check(key, sim::to_json(r).dump())))
        rep.fail(key);
    }
  } while (since(start) < o.seconds);
  rep.values["setup_s"] = setup.finish();
  rep.values["sim_minsts_per_s"] = steady_rate_m(times);
}

/// Accumulates the per-layer metrics shared by the span-instrumented rigs.
struct LayerTotals {
  double ticks = 0.0, visited = 0.0, untraced_wall = 0.0, traced_wall = 0.0;
  SchedCounts sched;

  void report(const Tracer& tr, Report& rep) const {
    auto& v = rep.values;
    const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    v["sim.mticks_per_s"] = per(ticks, untraced_wall) / 1e6;
    v["sim.visited_ticks"] = visited;
    v["sim.visited_share"] = per(visited, ticks);
    v["sim.scan_ns_per_visit"] = per(tr.self_ns(Layer::kSimScan), visited);
    v["sim.loop_self_ns_per_visit"] = per(tr.self_ns(Layer::kSimLoop), visited);
    v["cpu.step_ns_per_visit"] = per(tr.self_ns(Layer::kCpu), visited);
    v["cpu.fill_cb_ns_per_fill"] =
        per(tr.self_ns(Layer::kCpuFill), static_cast<double>(tr.calls(Layer::kCpuFill)));
    v["cache.tick_ns_per_visit"] = per(tr.self_ns(Layer::kCache), visited);
    v["mc.tick_ns_per_visit"] = per(tr.self_ns(Layer::kMc), visited);
    v["mc.ns_per_request"] = per(tr.self_ns(Layer::kMc), static_cast<double>(sched.served));
    v["mc.sched_rounds"] = static_cast<double>(sched.rounds);
    v["mc.requests_served"] = static_cast<double>(sched.served);
    v["sched.ns_per_round"] = per(tr.self_ns(Layer::kSched), static_cast<double>(sched.rounds));
    v["sched.priority_calls_per_round"] =
        per(static_cast<double>(sched.priority_calls), static_cast<double>(sched.rounds));
    v["sched.epoch_calls"] = static_cast<double>(sched.epoch_calls);
    v["spans.coverage"] = per(tr.total_self_ns() / 1e9, traced_wall);
    v["spans.overhead_share"] = per(traced_wall - untraced_wall, untraced_wall);
  }
};

void write_spans(const Options& o, const Tracer& tr) {
  std::filesystem::create_directories(o.out_dir);
  tr.write_log(o.out_dir + "/spans-" + workload_name(*o.workload) + ".jsonl");
}

void traced_closed_exact(const Options& o, Report& rep) {
  const Seeds seeds = derive_seeds(o.seed);
  SchemeFactory f(seeds.profile);
  Tracer tr(kSpanLogCapacity);
  LayerTotals lt;
  double committed = 0.0, replay_ns = 0.0, l2_miss = 0.0, retry = 0.0, row_hit = 0.0,
         bus = 0.0;
  for (const ClosedCase& c : closed_exact_cases()) {
    const sim::Workload& w = sim::workload_by_name(c.mix);
    const sim::SystemConfig cfg = closed_config(w.cores(), sim::Engine::kSkip);
    const CaseRun run = run_closed_case(f, c, sim::Engine::kSkip, seeds.eval);
    const sim::RunResult& r = run.result;
    lt.untraced_wall += run.run_s;

    const sched::SchedulerPtr real = f.make(c.scheme, c.mix);
    TracedScheduler ts(*real, &tr);
    const ClosedRigResult g =
        run_closed_rig(cfg, w.apps(), ts, seeds.eval, c.target_insts, kWarmupInsts, tr);
    ++rep.attempted;
    bool same = g.ticks == r.ticks && g.visited == r.visited_ticks &&
                controller_stats_record(g.controller_stats) ==
                    controller_stats_record(r.controller_stats);
    double case_insts = 0.0;
    for (std::uint32_t i = 0; i < w.cores(); ++i) {
      same = same && g.committed[i] == r.cores[i].committed;
      case_insts += static_cast<double>(r.cores[i].committed);
    }
    if (!same) rep.fail("traced rig diverged from MultiCoreSystem::run on " + c.name());

    lt.sched.add(ts);
    lt.ticks += static_cast<double>(r.ticks);
    lt.visited += static_cast<double>(g.visited);
    lt.traced_wall += g.wall_s;
    const ReplayCost rc = replay_streams(cfg, w.apps(), seeds.eval,
                                         static_cast<std::uint64_t>(case_insts) / w.cores());
    replay_ns += rc.next_ns_per_inst * case_insts;
    committed += case_insts;
    l2_miss += g.l2_miss_ratio;
    retry += static_cast<double>(g.retry_cycles);
    row_hit += r.row_hit_rate;
    bus += g.bus_utilization;
  }
  const auto n = static_cast<double>(closed_exact_cases().size());
  lt.report(tr, rep);
  auto& v = rep.values;
  v["cpu.insts_committed"] = committed;
  v["trace.ns_per_inst"] = replay_ns / committed;
  v["cache.l2_miss_ratio"] = l2_miss / n;
  v["cache.mshr_retry_cycles"] = retry;
  v["mc.row_hit_ratio"] = row_hit / n;
  v["dram.bus_utilization"] = bus / n;
  if (std::abs(v["spans.coverage"] - 1.0) > 0.05)
    rep.fail("span self time is not within 5% of the rig wall");
  write_spans(o, tr);
}

void traced_sampled(const Options& o, Report& rep) {
  const Seeds seeds = derive_seeds(o.seed);
  SchemeFactory f(seeds.profile);
  const ExpectationFile refs = ExpectationFile::load(reference_path(o));
  Tracer tr(kSpanLogCapacity);
  LayerTotals lt;
  double committed = 0.0, ff_ns = 0.0, func_ns = 0.0, ff_insts = 0.0, ipc_err = 0.0,
         lat_err = 0.0, row_hit = 0.0, bus = 0.0;
  for (const ClosedCase& c : sampled_cases()) {
    const sim::Workload& w = sim::workload_by_name(c.mix);
    const sim::SystemConfig cfg = closed_config(w.cores(), sim::Engine::kSampled);
    const CaseRun run = run_closed_case(f, c, sim::Engine::kSampled, seeds.eval);
    const sim::RunResult& r = run.result;
    lt.untraced_wall += run.run_s;
    const CaseRun traced =
        run_closed_case(f, c, sim::Engine::kSampled, seeds.eval, &tr, &lt.sched);
    lt.traced_wall += traced.run_s;

    const std::string key = expectation_key("sampled", c.name(), seeds.slot);
    ++rep.attempted;
    if (!sampled_valid(r) || sim::to_json(r).dump() != sim::to_json(traced.result).dump())
      rep.fail("sampled run invalid or not reproduced under tracing: " + key);
    const util::Json* ref = refs.find(key);
    if (ref != nullptr && ref->at("target_insts").as_uint() == c.target_insts) {
      const double ipc = ref->at("total_ipc").as_number();
      const double lat = ref->at("read_latency_cpu").as_number();
      ipc_err += std::abs(r.sampling.total_ipc.mean - ipc) / ipc * 100.0;
      lat_err += std::abs(r.sampling.read_latency_cpu.mean - lat) / lat * 100.0;
    } else {
      rep.fail("no exact reference for " + key +
               " at this target (python3 perfbench/run.py --reference)");
    }

    lt.ticks += static_cast<double>(r.ticks);
    lt.visited += static_cast<double>(r.visited_ticks);
    for (const sim::CoreResult& cr : r.cores) committed += static_cast<double>(cr.committed);
    const std::uint64_t skipped = r.sampling.skipped_insts_per_core;
    const ReplayCost rc = replay_streams(cfg, w.apps(), seeds.eval, skipped);
    const double n_ff = static_cast<double>(skipped) * w.cores();
    ff_ns += rc.next_ref_ns_per_inst * n_ff;
    func_ns += rc.functional_ns_per_inst * n_ff;
    ff_insts += n_ff;
    row_hit += r.row_hit_rate;
    bus += r.data_bus_utilization;
  }
  const auto n = static_cast<double>(sampled_cases().size());
  lt.report(tr, rep);
  auto& v = rep.values;
  v["cpu.insts_committed"] = committed;
  v["trace.ff_ns_per_inst"] = ff_ns / ff_insts;
  v["cache.ff_ns_per_inst"] = func_ns / ff_insts;
  v["mc.row_hit_ratio"] = row_hit / n;
  v["dram.bus_utilization"] = bus / n;
  v["sampled_ipc_err_pct"] = ipc_err / n;
  v["sampled_lat_err_pct"] = lat_err / n;
  write_spans(o, tr);
}

// --- open loop --------------------------------------------------------------

/// Set-up of the open loop: profile the ME table that ranks the request
/// sources under ME-LREQ and build every case's scheduler.
std::unique_ptr<SchemeFactory> setup_open(const Seeds& seeds) {
  auto f = std::make_unique<SchemeFactory>(seeds.profile);
  for (const OpenCase& c : open_loop_cases()) (void)f->make(c.scheme, kOpenLoopMeMix);
  return f;
}

void timed_open(const Options& o, Report& rep) {
  const Seeds seeds = derive_seeds(o.seed);
  Digests digests(digests_path(o), false);
  std::unique_ptr<SchemeFactory> f;
  SetupSchedule setup(o.seconds, [&] { f = setup_open(seeds); });
  setup.run_if_due(0.0);

  const std::vector<OpenCase>& cases = open_loop_cases();
  std::vector<CaseTimes> times(cases.size());
  const auto start = util::monotonic_now();
  do {
    setup.run_if_due(since(start));
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const OpenCase& c = cases[i];
      const sim::OpenLoopConfig cfg = open_config(c, seeds.eval);
      const sched::SchedulerPtr s = f->make(c.scheme, kOpenLoopMeMix);
      const auto t0 = util::monotonic_now();
      const sim::OpenLoopResult r = sim::run_open_loop(cfg, *s);
      const double dt = since(t0);
      ++rep.attempted;
      times[i].seconds.push_back(dt);
      // The open loop has no cores: each injected request is its one
      // (memory) instruction.
      times[i].work = c.load * static_cast<double>(c.ticks);
      const std::string key = expectation_key("open-loop", c.name(), seeds.slot);
      std::fprintf(stderr, "perfbench: %s %.3f s\n", key.c_str(), dt);
      if (!digests.check(key, open_loop_record(r))) rep.fail(key);
    }
  } while (since(start) < o.seconds);
  rep.values["setup_s"] = setup.finish();
  rep.values["sim_minsts_per_s"] = steady_rate_m(times);
}

void traced_open(const Options& o, Report& rep) {
  const Seeds seeds = derive_seeds(o.seed);
  SchemeFactory f(seeds.profile);
  Tracer tr(kSpanLogCapacity);
  LayerTotals lt;
  double row_hit = 0.0, bus = 0.0;
  for (const OpenCase& c : open_loop_cases()) {
    const sim::OpenLoopConfig cfg = open_config(c, seeds.eval);
    const sched::SchedulerPtr plain = f.make(c.scheme, kOpenLoopMeMix);
    const auto t0 = util::monotonic_now();
    const sim::OpenLoopResult r = sim::run_open_loop(cfg, *plain);
    lt.untraced_wall += since(t0);

    const sched::SchedulerPtr real = f.make(c.scheme, kOpenLoopMeMix);
    TracedScheduler ts(*real, &tr);
    const OpenRigResult g = run_open_rig(cfg, ts, tr);
    ++rep.attempted;
    if (open_loop_record(g.result) != open_loop_record(r))
      rep.fail("traced open-loop rig diverged from run_open_loop on " + c.name());
    lt.sched.add(ts);
    lt.ticks += static_cast<double>(g.ticks);
    lt.visited += static_cast<double>(g.visited);
    lt.traced_wall += g.wall_s;
    row_hit += r.row_hit_rate;
    bus += r.data_bus_utilization;
  }
  const auto n = static_cast<double>(open_loop_cases().size());
  lt.report(tr, rep);
  rep.values["mc.row_hit_ratio"] = row_hit / n;
  rep.values["dram.bus_utilization"] = bus / n;
  write_spans(o, tr);
}

// --- sweep --------------------------------------------------------------------

struct SweepPass {
  harness::SweepSummary cold, warm;
  std::string cold_report, warm_report;
  std::vector<std::pair<std::string, double>> point_walls_s;  ///< executed points
  std::uint64_t retries = 0;
  memsched::cache::ResultCacheStats warm_cache;
};

/// One cold sweep into an empty result cache, then a warm re-run of the same
/// grid with the manifest gone (a fresh orchestrator), served from the cache.
SweepPass run_sweep_pass(const harness::GridSpec& spec,
                         const std::vector<harness::PointSpec>& points, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  harness::OrchestratorConfig oc;
  oc.fingerprint = harness::fingerprint(spec);
  oc.cache_fingerprint = harness::config_fingerprint(spec);
  oc.cache_dir = dir + "/cache";
  oc.work_dir = dir + "/cold.work";
  oc.jobs = kSweepJobs;
  oc.verbose = false;
  oc.timeout_seconds = 120.0;
  SweepPass p;
  std::fflush(stdout);  // forked workers must not inherit buffered output
  {
    harness::Orchestrator cold(oc);
    p.cold = cold.run(points);
    p.cold_report = cold.report().dump();
    const util::Json timing = cold.timing_report();
    for (const auto& [name, ms] : timing.at("points").members())
      p.point_walls_s.emplace_back(name, ms.as_number() / 1000.0);
    for (const harness::PointRecord& r : cold.manifest().records()) p.retries += r.attempts - 1;
  }
  oc.work_dir = dir + "/warm.work";
  harness::Orchestrator warm(oc);
  p.warm = warm.run(points);
  p.warm_report = warm.report().dump();
  if (warm.result_cache() != nullptr) p.warm_cache = warm.result_cache()->stats();
  return p;
}

void sweep_workload(const Options& o, Report& rep) {
  const Seeds seeds = derive_seeds(o.seed);
  Digests digests(digests_path(o), false);
  const std::string dir = o.out_dir + "/sweep";

  // Set-up: build the grid, its point list and the instructions it plans to
  // commit. Each pass clears its own cache and work directories.
  harness::GridSpec spec;
  std::vector<harness::PointSpec> points;
  CaseTimes cold;  ///< the whole grid per cold pass
  SetupSchedule setup(o.seconds, [&] {
    spec = sweep_grid(seeds);
    points = harness::grid_points(spec);
    cold.work = 0.0;
    for (const harness::PointSpec& p : points)
      cold.work += static_cast<double>(planned_point_insts(spec, p.name));
  });
  setup.run_if_due(0.0);

  std::vector<double> walls, warm_s, overhead_s, ms_per_hit;
  double executed = 0.0, retries = 0.0, hit_ratio = 0.0;
  const auto start = util::monotonic_now();
  do {
    setup.run_if_due(since(start));
    const SweepPass p = run_sweep_pass(spec, points, dir);
    const std::string key = expectation_key("sweep", "fig2-grid", seeds.slot);
    std::fprintf(stderr, "perfbench: %s cold %.3f s warm %.3f s\n", key.c_str(),
                 p.cold.wall_ms / 1000.0, p.warm.wall_ms / 1000.0);
    // Every cold and warm point is an operation, and so are the two
    // report-level checks: the digest and the warm reproduction.
    rep.attempted += p.cold.total + p.warm.total + 2;
    const std::size_t bad_points = (p.cold.total - p.cold.ok) + (p.warm.total - p.warm.ok);
    if (bad_points > 0) rep.fail("sweep points failed: " + std::to_string(bad_points), bad_points);
    if (!digests.check(key, p.cold_report)) rep.fail(key);
    if (p.warm_report != p.cold_report || p.warm.cache_hits != p.warm.total)
      rep.fail("warm sweep did not reproduce the cold report from the cache");
    double busy = 0.0;
    for (const auto& [name, s] : p.point_walls_s) {
      walls.push_back(s);
      busy += s;
    }
    const double cold_wall = p.cold.wall_ms / 1000.0;
    cold.seconds.push_back(cold_wall);
    warm_s.push_back(p.warm.wall_ms / 1000.0);
    overhead_s.push_back(cold_wall - busy / p.cold.jobs);
    executed += static_cast<double>(p.cold.executed + p.warm.executed);
    retries += static_cast<double>(p.retries);
    const double lookups = static_cast<double>(p.warm_cache.hits + p.warm_cache.misses);
    hit_ratio = lookups > 0.0 ? static_cast<double>(p.warm_cache.hits) / lookups : 0.0;
    if (p.warm_cache.hits > 0)
      ms_per_hit.push_back(p.warm.wall_ms / static_cast<double>(p.warm_cache.hits));
  } while (since(start) < o.seconds);

  auto& v = rep.values;
  v["setup_s"] = setup.finish();
  // The cold makespan includes the pool's dispatch, fork, manifest and cache
  // writes; harness.pool_overhead_s is its share beyond Σ point wall / jobs.
  v["sim_minsts_per_s"] = steady_rate_m({cold});
  v["harness.point_wall_p50_s"] = percentile(walls, 0.50);
  v["harness.point_wall_p75_s"] = percentile(walls, 0.75);
  v["harness.sweep_cold_s"] = median(cold.seconds);
  v["harness.sweep_warm_s"] = median(warm_s);
  v["harness.pool_overhead_s"] = median(overhead_s);
  v["harness.points_executed"] = executed;
  v["harness.retries"] = retries;
  v["result_cache.hit_ratio"] = hit_ratio;
  v["result_cache.ms_per_hit"] = ms_per_hit.empty() ? 0.0 : median(ms_per_hit);
}

// --- modes ----------------------------------------------------------------------

int run_benchmark(const Options& o) {
  Report rep;
  switch (*o.workload) {
    case Workload::kClosedExact:
      o.trace ? traced_closed_exact(o, rep) : timed_closed(o, rep);
      break;
    case Workload::kSampled:
      o.trace ? traced_sampled(o, rep) : timed_closed(o, rep);
      break;
    case Workload::kOpenLoop:
      o.trace ? traced_open(o, rep) : timed_open(o, rep);
      break;
    case Workload::kSweep:
      sweep_workload(o, rep);
      break;
  }
  rep.values["peak_rss_mb"] = peak_rss_mb();
  const std::vector<MetricDef>& defs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& d : defs) {
    if (!std::isfinite(rep.values[d.name])) rep.fail(std::string("metric not finite: ") + d.name);
  }
  rep.print(defs);
  return 0;
}

int regenerate_digests(const Options& o) {
  Digests digests(digests_path(o), true);
  for (std::uint32_t slot = 0; slot < kSeedSlots; ++slot) {
    const Seeds seeds = seeds_for_slot(slot);
    SchemeFactory f(seeds.profile);
    for (const ClosedCase& c : closed_exact_cases()) {
      const sim::RunResult r = run_closed_case(f, c, sim::Engine::kSkip, seeds.eval).result;
      digests.check(expectation_key("closed-exact", c.name(), slot), sim::to_json(r).dump());
    }
    for (const OpenCase& c : open_loop_cases()) {
      const sched::SchedulerPtr s = f.make(c.scheme, kOpenLoopMeMix);
      const sim::OpenLoopResult r = sim::run_open_loop(open_config(c, seeds.eval), *s);
      digests.check(expectation_key("open-loop", c.name(), slot), open_loop_record(r));
    }
    const harness::GridSpec spec = sweep_grid(seeds);
    const SweepPass p = run_sweep_pass(spec, harness::grid_points(spec), o.out_dir + "/sweep");
    if (p.cold.failed > 0) throw std::runtime_error("sweep points failed during regen");
    digests.check(expectation_key("sweep", "fig2-grid", slot), p.cold_report);
  }
  digests.save();
  return 0;
}

int regenerate_reference(const Options& o) {
  ExpectationFile refs = ExpectationFile::load(reference_path(o));
  for (std::uint32_t slot = 0; slot < kSeedSlots; ++slot) {
    const Seeds seeds = seeds_for_slot(slot);
    SchemeFactory f(seeds.profile);
    for (const ClosedCase& c : sampled_cases()) {
      const sim::RunResult r = run_closed_case(f, c, sim::Engine::kSkip, seeds.eval).result;
      if (r.hit_tick_limit) throw std::runtime_error("reference run hit the tick limit");
      util::Json e = util::Json::object();
      e["total_ipc"] = r.total_ipc();
      e["read_latency_cpu"] = r.avg_read_latency_cpu;
      e["target_insts"] = c.target_insts;
      e["eval_seed"] = seeds.eval;
      e["profile_seed"] = seeds.profile;
      refs.set(expectation_key("sampled", c.name(), slot), std::move(e));
      std::printf("reference %s slot %u: ipc %.6g lat %.6g\n", c.name().c_str(), slot,
                  r.total_ipc(), r.avg_read_latency_cpu);
      std::fflush(stdout);
    }
  }
  util::Json prov = util::Json::object();
  prov["what"] =
      "exact skip-engine total IPC and read latency (CPU cycles) of each sampled case, "
      "same target, warmup and seeds as the sampled run";
  prov["engine"] = "skip";
  prov["warmup_insts"] = kWarmupInsts;
  prov["profile_insts"] = kProfileInsts;
  prov["validated_against_hardware"] = false;
  prov["regenerate"] = "python3 perfbench/run.py --reference";
  refs.set_provenance(std::move(prov));
  refs.save(reference_path(o));
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n"
               "                 [--mode run|regen|reference] [--data DIR] [--out DIR]\n"
               "workloads: closed-exact open-loop sampled sweep\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = parse_workload(v);
      if (!o.workload) return usage(("unknown workload " + v).c_str());
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--mode") {
      o.mode = v;
    } else if (a == "--data") {
      o.data_dir = v;
    } else if (a == "--out") {
      o.out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  try {
    if (o.mode == "regen") return regenerate_digests(o);
    if (o.mode == "reference") return regenerate_reference(o);
    if (o.mode != "run") return usage("unknown mode");
    if (!o.workload) return usage("--workload is required");
    return run_benchmark(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
