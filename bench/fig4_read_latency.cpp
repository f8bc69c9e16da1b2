// Figure 4 reproduction: memory read latency under the five schemes on the
// four-core MEM workloads.
//
//   Left part  — average read latency per workload and scheme.
//   Right part — per-core read latency for 4MEM-1 and 4MEM-5, exposing the
//                starvation behaviour of fixed ME priority (paper: core 1 at
//                289 cycles vs core 3 at 1042 cycles under ME on 4MEM-5).
#include <cstdio>
#include <string>
#include <vector>

#include "harness/guarded_main.hpp"
#include "report.hpp"
#include "sim/workloads.hpp"
#include "util/stats.hpp"

using namespace memsched;
using bench::BenchSetup;

namespace {
// Paper's five Figure-4 schemes first (the measured-means summary indexes
// 0-4), then the epoch-aware zoo appended for the leaderboard.
const std::vector<std::string> kSchemes = {"HF-RF",   "ME",  "RR",  "LREQ",
                                           "ME-LREQ", "BLISS", "TCM", "CADS"};
}

namespace {

int run_bench(int argc, char** argv) {
  const BenchSetup setup = BenchSetup::parse(argc, argv);
  bench::print_header(setup, "Figure 4 — memory read latency (4-core MEM workloads)",
                      "ME-LREQ has the lowest average read latency; fixed ME "
                      "priority spreads per-core latency the most (starvation)");

  sim::Experiment exp(setup.experiment);
  bench::CsvSink csv(setup.csv_path);
  csv.row({"workload", "scheme", "avg_read_latency_cpu", "core0", "core1", "core2",
           "core3"});

  const auto workloads = sim::table3_workloads(4, "MEM");

  const auto rows = bench::run_grid(exp, workloads, kSchemes);

  std::printf("---- left part: average read latency (CPU cycles) ----\n");
  std::printf("%-8s", "mix");
  for (const auto& s : kSchemes) std::printf(" %9s", s.c_str());
  std::printf("\n");
  std::vector<util::RunningStat> avg_by_scheme(kSchemes.size());
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    std::printf("%-8s", workloads[wi].name.c_str());
    for (std::size_t si = 0; si < kSchemes.size(); ++si) {
      const sim::WorkloadRun& r = rows[wi][si];
      std::printf(" %9.0f", r.avg_read_latency_cpu);
      avg_by_scheme[si].add(r.avg_read_latency_cpu);
      csv.row({workloads[wi].name, kSchemes[si], util::fmt(r.avg_read_latency_cpu, 1),
               util::fmt(r.core_read_latency_cpu[0], 1),
               util::fmt(r.core_read_latency_cpu[1], 1),
               util::fmt(r.core_read_latency_cpu[2], 1),
               util::fmt(r.core_read_latency_cpu[3], 1)});
    }
    std::printf("\n");
  }
  std::printf("%-8s", "mean");
  for (auto& s : avg_by_scheme) std::printf(" %9.0f", s.mean());
  std::printf("\n\n");

  std::printf("---- right part: per-core read latency (CPU cycles) ----\n");
  for (const char* pick : {"4MEM-1", "4MEM-5"}) {
    std::printf("%s:\n", pick);
    std::printf("  %-9s %8s %8s %8s %8s %10s\n", "scheme", "core0", "core1", "core2",
                "core3", "max/min");
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      if (workloads[wi].name != pick) continue;
      for (std::size_t si = 0; si < kSchemes.size(); ++si) {
        const auto& lat = rows[wi][si].core_read_latency_cpu;
        double mn = lat[0], mx = lat[0];
        for (double v : lat) {
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
        std::printf("  %-9s %8.0f %8.0f %8.0f %8.0f %9.2fx\n", kSchemes[si].c_str(),
                    lat[0], lat[1], lat[2], lat[3], mn > 0 ? mx / mn : 0.0);
      }
    }
  }

  std::printf("\n---- latency distribution (CPU cycles, pooled over 4MEM mixes, last slice) ----\n");
  std::printf("  %-9s %8s %8s %8s\n", "scheme", "p50", "p90", "p99");
  for (std::size_t si = 0; si < kSchemes.size(); ++si) {
    util::Histogram pooled(32.0, 256);
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      pooled.merge(rows[wi][si].raw.controller_stats.read_latency_hist);
    }
    std::printf("  %-9s %8.0f %8.0f %8.0f\n", kSchemes[si].c_str(), pooled.quantile(0.5),
                pooled.quantile(0.9), pooled.quantile(0.99));
  }

  std::printf("\n==== paper-vs-measured summary ====\n");
  std::printf("paper: HF-RF 376 cycles avg vs ME-LREQ 323 (ME-LREQ lowest);\n");
  std::printf("       4MEM-1 under HF-RF 613 -> ME-LREQ 490;\n");
  std::printf("       ME on 4MEM-5 spreads cores 289..1042 (starvation).\n");
  std::printf("measured means: HF-RF %.0f, ME %.0f, RR %.0f, LREQ %.0f, ME-LREQ %.0f\n",
              avg_by_scheme[0].mean(), avg_by_scheme[1].mean(), avg_by_scheme[2].mean(),
              avg_by_scheme[3].mean(), avg_by_scheme[4].mean());
  std::printf("reproduced when ME-LREQ's mean is the lowest (or ties lowest) and the\n"
              "ME scheme shows the largest per-core max/min ratio above.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("fig4_read_latency", [&] { return run_bench(argc, argv); });
}
