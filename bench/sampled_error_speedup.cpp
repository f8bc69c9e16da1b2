// Extension bench: sampled-engine error vs. speedup, per scheduling scheme.
//
// Runs every factory scheduler on a fig-2-grid workload subset twice — once
// under the exact skip engine, once under engine=sampled (SMARTS-style
// interval sampling, src/sim/system.cpp run_sampled) — and reports, per
// (workload, scheme) case:
//   * wall-clock speedup of sampled over exact;
//   * the relative error of each headline estimate (read latency, total
//     IPC, row-hit rate, fairness proxy) against the exact run;
//   * the estimate's own relative 95% CI half-width, so the table shows
//     whether the stated uncertainty covers the observed error.
// The differential CI-coverage *gate* lives in tests/test_sampled_equiv.cpp
// (ctest -L sampled-equiv); this bench produces the error-vs-speedup table
// quoted in EXPERIMENTS.md. Emits BENCH_sampled_error.json (out=<path>).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/scheduler_factory.hpp"
#include "harness/guarded_main.hpp"
#include "report.hpp"
#include "sim/system.hpp"
#include "sim/workloads.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/wallclock.hpp"

using namespace memsched;
using bench::BenchSetup;

namespace {

// The full fig-2 core-count span. The 8-core cases are where sampling pays
// most: exact simulation cost per instruction grows with core count while
// the detailed sample stays fixed at K*(warmup+measure).
const std::vector<std::string> kWorkloads = {"2MEM-1", "2MIX-1", "4MEM-1",
                                             "4MIX-1", "8MEM-1", "8MIX-1"};

// The fig2 reference schemes (paper's five plus the epoch-aware zoo's
// leaderboard additions); schemes=... swaps in any factory subset,
// e.g. the full core::known_schedulers() zoo.
const std::vector<std::string> kFig2Schemes = {"HF-RF", "ME",      "RR",  "LREQ",
                                               "ME-LREQ", "BLISS", "TCM", "CADS"};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string tok = csv.substr(start, comma - start);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

sched::SchedulerPtr scheduler_for(const std::string& scheme, std::uint32_t cores) {
  core::SchedulerArgs args;
  args.core_count = cores;
  std::vector<double> me, ipc;
  for (std::uint32_t c = 0; c < cores; ++c) {
    me.push_back(9.0 / (1.0 + static_cast<double>(c)));
    ipc.push_back(2.0 / (1.0 + 0.2 * static_cast<double>(c)));
  }
  args.me = core::MeTable(me);
  args.ipc_single = ipc;
  return core::make_scheduler(scheme, args);
}

struct TimedResult {
  double wall_s = 0.0;
  sim::RunResult result;
};

TimedResult timed_run(const BenchSetup& setup, const sim::Workload& w,
                      const std::string& scheme, sim::Engine engine, int reps) {
  sim::SystemConfig cfg = setup.experiment.base;
  cfg.cores = w.cores();
  cfg.engine = engine;
  TimedResult out;
  for (int i = 0; i < reps; ++i) {
    const sched::SchedulerPtr s = scheduler_for(scheme, cfg.cores);
    sim::MultiCoreSystem sys(cfg, w.apps(), *s, setup.experiment.eval_seed);
    const auto t0 = util::monotonic_now();
    out.result = sys.run(setup.experiment.eval_insts, setup.experiment.warmup_insts);
    const double wall = util::seconds_between(t0, util::monotonic_now());
    if (i == 0 || wall < out.wall_s) out.wall_s = wall;
  }
  return out;
}

double rel_pct(double est, double exact) {
  return exact == 0.0 ? 0.0 : 100.0 * std::abs(est - exact) / std::abs(exact);
}

double exact_ipc_ratio(const sim::RunResult& r) {
  double lo = 0.0, hi = 0.0;
  for (std::size_t c = 0; c < r.cores.size(); ++c) {
    const double ipc = r.cores[c].ipc;
    lo = c == 0 ? ipc : std::min(lo, ipc);
    hi = c == 0 ? ipc : std::max(hi, ipc);
  }
  return lo > 0.0 ? hi / lo : 1.0;
}

int run_bench(int argc, char** argv) {
  BenchSetup setup = BenchSetup::parse(
      argc, argv, {"out", "reps", "intervals", "interval_insts", "sample_warmup",
                   "workloads", "schemes"});
  sim::SamplingConfig& smp_cfg = setup.experiment.base.sampling;
  smp_cfg.intervals = setup.cli.get_u32("intervals", smp_cfg.intervals);
  smp_cfg.interval_insts = setup.cli.get_uint("interval_insts", smp_cfg.interval_insts);
  smp_cfg.warmup_insts = setup.cli.get_uint("sample_warmup", smp_cfg.warmup_insts);
  bench::print_header(
      setup, "Extension — sampled-engine error vs. speedup",
      "interval sampling trades exactness for wall clock; errors must sit "
      "within the stated 95% CIs (gated by ctest -L sampled-equiv)");
  const int reps =
      std::max(1, static_cast<int>(setup.cli.get_int("reps", 2)));
  const std::string out_path =
      setup.cli.get_string("out", "BENCH_sampled_error.json");

  std::vector<std::string> workloads = kWorkloads;
  if (const std::string csv = setup.cli.get_string("workloads", ""); !csv.empty())
    workloads = split_csv(csv);
  std::vector<std::string> schemes = kFig2Schemes;
  if (const std::string csv = setup.cli.get_string("schemes", ""); !csv.empty())
    schemes = split_csv(csv);
  util::Json cases = util::Json::array();
  util::RunningStat speedups;
  util::RunningStat lat_err, ipc_err, rhr_err, fair_err;
  double grid_wall_exact = 0.0, grid_wall_sampled = 0.0;

  for (const std::string& wl : workloads) {
    const sim::Workload& w = sim::workload_by_name(wl);
    std::printf("---- %s (%u cores, %llu insts/core) ----\n", wl.c_str(), w.cores(),
                static_cast<unsigned long long>(setup.experiment.eval_insts));
    std::printf("%-9s %8s %12s %12s %12s %12s\n", "scheme", "speedup",
                "lat err/ci%", "ipc err/ci%", "rhr err/ci%", "fair err/ci%");
    for (const std::string& scheme : schemes) {
      const TimedResult exact = timed_run(setup, w, scheme, sim::Engine::kSkip, reps);
      const TimedResult smp = timed_run(setup, w, scheme, sim::Engine::kSampled, reps);
      const sim::SamplingStats& st = smp.result.sampling;

      const double speedup = exact.wall_s / std::max(smp.wall_s, 1e-9);
      const double lat_exact = exact.result.avg_read_latency_cpu;
      const double ipc_exact = exact.result.total_ipc();
      const double rhr_exact = exact.result.row_hit_rate;
      const double fair_exact = exact_ipc_ratio(exact.result);

      const auto err_ci = [](const sim::MetricEstimate& e, double ex) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%5.1f/%4.1f", rel_pct(e.mean, ex),
                      ex == 0.0 ? 0.0 : 100.0 * e.ci95 / std::abs(ex));
        return std::string(buf);
      };
      std::printf("%-9s %7.2fx %12s %12s %12s %12s\n", scheme.c_str(), speedup,
                  err_ci(st.read_latency_cpu, lat_exact).c_str(),
                  err_ci(st.total_ipc, ipc_exact).c_str(),
                  err_ci(st.row_hit_rate, rhr_exact).c_str(),
                  err_ci(st.ipc_ratio, fair_exact).c_str());

      speedups.add(speedup);
      grid_wall_exact += exact.wall_s;
      grid_wall_sampled += smp.wall_s;
      lat_err.add(rel_pct(st.read_latency_cpu.mean, lat_exact));
      ipc_err.add(rel_pct(st.total_ipc.mean, ipc_exact));
      rhr_err.add(rel_pct(st.row_hit_rate.mean, rhr_exact));
      fair_err.add(rel_pct(st.ipc_ratio.mean, fair_exact));

      util::Json e = util::Json::object();
      e["workload"] = wl;
      e["scheme"] = scheme;
      e["wall_s_exact"] = exact.wall_s;
      e["wall_s_sampled"] = smp.wall_s;
      e["speedup"] = speedup;
      e["read_latency_err_pct"] = rel_pct(st.read_latency_cpu.mean, lat_exact);
      e["read_latency_ci95"] = st.read_latency_cpu.ci95;
      e["total_ipc_err_pct"] = rel_pct(st.total_ipc.mean, ipc_exact);
      e["row_hit_rate_err_pct"] = rel_pct(st.row_hit_rate.mean, rhr_exact);
      e["ipc_ratio_err_pct"] = rel_pct(st.ipc_ratio.mean, fair_exact);
      // Raw point estimates, so the table is reproducible and scheme-ranking
      // fidelity (does sampled order the schemes like exact?) can be checked
      // offline from the JSON alone.
      e["read_latency_exact"] = lat_exact;
      e["read_latency_sampled"] = st.read_latency_cpu.mean;
      e["total_ipc_exact"] = ipc_exact;
      e["total_ipc_sampled"] = st.total_ipc.mean;
      e["row_hit_rate_exact"] = rhr_exact;
      e["row_hit_rate_sampled"] = st.row_hit_rate.mean;
      e["ipc_ratio_exact"] = fair_exact;
      e["ipc_ratio_sampled"] = st.ipc_ratio.mean;
      e["intervals_measured"] = static_cast<double>(st.intervals_measured);
      cases.push_back(std::move(e));
    }
    std::printf("\n");
  }

  std::printf("==== aggregate over %zu cases ====\n", static_cast<std::size_t>(speedups.count()));
  const double grid_speedup = grid_wall_exact / std::max(grid_wall_sampled, 1e-9);
  std::printf("grid wall clock:    exact %.2fs  sampled %.2fs  -> %.2fx\n",
              grid_wall_exact, grid_wall_sampled, grid_speedup);
  std::printf("per-case speedup:   min %.2fx  mean %.2fx  max %.2fx\n", speedups.min(),
              speedups.mean(), speedups.max());
  std::printf("read-latency error: mean %.1f%%  max %.1f%%\n", lat_err.mean(), lat_err.max());
  std::printf("total-IPC error:    mean %.1f%%  max %.1f%%\n", ipc_err.mean(), ipc_err.max());
  std::printf("row-hit-rate error: mean %.1f%%  max %.1f%%\n", rhr_err.mean(), rhr_err.max());
  std::printf("fairness error:     mean %.1f%%  max %.1f%%\n", fair_err.mean(), fair_err.max());

  util::Json doc = util::Json::object();
  doc["bench"] = "sampled_error_speedup";
  doc["eval_insts"] = static_cast<double>(setup.experiment.eval_insts);
  doc["cases"] = std::move(cases);
  doc["speedup_min"] = speedups.min();
  doc["speedup_mean"] = speedups.mean();
  doc["grid_wall_exact_s"] = grid_wall_exact;
  doc["grid_wall_sampled_s"] = grid_wall_sampled;
  doc["grid_speedup"] = grid_speedup;
  doc.write_file(out_path);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("sampled_error_speedup",
                               [&] { return run_bench(argc, argv); });
}
