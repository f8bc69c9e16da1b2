// Figure 3 reproduction: simple fixed-priority schemes vs ME on the
// four-core workloads — HF-RF, ME, FIX-3210 (descending core priority) and
// FIX-0123 (ascending).
//
// The paper's point: random fixed priorities swing wildly per workload
// (4MEM-1: +2.8% under FIX-0123 but -13.8% under FIX-3210; 4MEM-6: -18.0%
// under FIX-3210), while ME-guided priority is comparatively consistent —
// so the ME information, not the mere existence of fixed priorities, is
// what matters.
#include <algorithm>
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
// Paper's Figure-3 schemes first (the summary indexes them 0-3), then the
// epoch-aware zoo appended for the leaderboard comparison.
const std::vector<std::string> kSchemes = {"HF-RF",   "ME",  "FIX-DESC", "FIX-ASC",
                                           "BLISS", "TCM", "CADS"};
}

namespace {

int run_bench(int argc, char** argv) {
  const BenchSetup setup = BenchSetup::parse(argc, argv);
  bench::print_header(setup, "Figure 3 — simple and fixed priority schemes (4 cores)",
                      "random fixed priorities are erratic across workloads; "
                      "ME-guided priority is consistent");

  sim::Experiment exp(setup.experiment);
  bench::CsvSink csv(setup.csv_path);
  csv.row({"workload", "scheme", "smt_speedup", "vs_hfrf_pct"});

  const auto workloads = sim::table3_workloads(4, "ALL");

  const auto rows = bench::run_grid(exp, workloads, kSchemes);

  std::printf("%-8s", "mix");
  for (const auto& s : kSchemes) std::printf(" %10s", s.c_str());
  std::printf("   (gains vs HF-RF)\n");

  util::RunningStat asymmetry;     // FIX-3210 minus FIX-0123, points
  util::RunningStat me_vs_best_fix;  // ME minus max(FIX-3210, FIX-0123)
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const double base = rows[wi][0].smt_speedup;
    std::printf("%-8s", workloads[wi].name.c_str());
    for (std::size_t si = 0; si < kSchemes.size(); ++si) {
      std::printf(" %10.4f", rows[wi][si].smt_speedup);
      csv.row({workloads[wi].name, kSchemes[si],
               util::fmt(rows[wi][si].smt_speedup, 4),
               util::fmt(bench::pct(rows[wi][si].smt_speedup, base), 2)});
    }
    const double g_me = bench::pct(rows[wi][1].smt_speedup, base);
    const double g_desc = bench::pct(rows[wi][2].smt_speedup, base);
    const double g_asc = bench::pct(rows[wi][3].smt_speedup, base);
    asymmetry.add(g_desc - g_asc);
    me_vs_best_fix.add(g_me - std::max(g_desc, g_asc));
    std::printf("   ME %s  FIX-3210 %s  FIX-0123 %s\n", bench::fmt_pct(g_me).c_str(),
                bench::fmt_pct(g_desc).c_str(), bench::fmt_pct(g_asc).c_str());
  }

  std::printf("\n==== paper-vs-measured summary ====\n");
  std::printf(
      "The paper's point: which fixed order helps is workload-dependent and\n"
      "unpredictable (4MEM-1 gains +2.8%% under FIX-0123 but loses -13.8%%\n"
      "under FIX-3210), while ME-guided priority is consistent. Measured:\n");
  std::printf("  FIX-3210 minus FIX-0123 per workload: %+0.1f .. %+0.1f pts\n"
              "    (sign flips => the \"right\" order is unpredictable: %s)\n",
              asymmetry.min(), asymmetry.max(),
              asymmetry.min() < -0.25 && asymmetry.max() > 0.25 ? "yes" : "no");
  std::printf("  ME minus best-of-both-FIX per workload: mean %+0.2f pts\n"
              "    (>= ~0 => profiling-guided priority matches or beats the\n"
              "    lucky fixed order without having to guess it)\n",
              me_vs_best_fix.mean());
  std::printf(
      "\nNote: in this reproduction all priority schemes share one structural\n"
      "advantage over the windowed HF-RF baseline (DESIGN.md §4.6), so none\n"
      "swings *negative* as in the paper; the order-dependence and ME's\n"
      "consistency — Figure 3's argument — are in the two statistics above.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("fig3_fixed_priority", [&] { return run_bench(argc, argv); });
}
