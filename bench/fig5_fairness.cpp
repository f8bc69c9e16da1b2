// Figure 5 reproduction: unfairness (max slowdown / min slowdown) under the
// five schemes on the four-core MEM workloads.
//
// Paper findings: ME-LREQ achieves the best fairness — vs HF-RF / RR / LREQ
// it cuts unfairness by 7.9% / 7.6% / 16.6% on average (max 32.5% on
// 4MEM-1); the ME scheme is the least fair (avg +4.7% vs HF-RF, up to
// +22.4% on 4MEM-4).
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
// Paper's five Figure-5 schemes first (the summary indexes 0-4; index 4 is
// the ME-LREQ reference), then the epoch-aware zoo for the leaderboard.
const std::vector<std::string> kSchemes = {"HF-RF",   "ME",  "RR",  "LREQ",
                                           "ME-LREQ", "BLISS", "TCM", "CADS"};
}

namespace {

int run_bench(int argc, char** argv) {
  const BenchSetup setup = BenchSetup::parse(argc, argv);
  bench::print_header(setup, "Figure 5 — fairness (4-core MEM workloads)",
                      "ME-LREQ has the lowest unfairness; fixed ME priority the worst");

  sim::Experiment exp(setup.experiment);
  bench::CsvSink csv(setup.csv_path);
  csv.row({"workload", "scheme", "unfairness", "vs_hfrf_pct"});

  const auto workloads = sim::table3_workloads(4, "MEM");

  const auto rows = bench::run_grid(exp, workloads, kSchemes);

  std::printf("%-8s", "mix");
  for (const auto& s : kSchemes) std::printf(" %9s", s.c_str());
  std::printf("   (unfairness; 1.0 = perfectly fair)\n");
  std::vector<util::RunningStat> unf(kSchemes.size());
  // Reduction of ME-LREQ vs each scheme.
  std::vector<util::RunningStat> melreq_cut_vs(kSchemes.size());
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    std::printf("%-8s", workloads[wi].name.c_str());
    const double base = rows[wi][0].unfairness;
    for (std::size_t si = 0; si < kSchemes.size(); ++si) {
      const double u = rows[wi][si].unfairness;
      std::printf(" %9.3f", u);
      unf[si].add(u);
      melreq_cut_vs[si].add(-bench::pct(rows[wi][4].unfairness, u));
      csv.row({workloads[wi].name, kSchemes[si], util::fmt(u, 4),
               util::fmt(bench::pct(u, base), 2)});
    }
    std::printf("\n");
  }
  std::printf("%-8s", "mean");
  for (auto& s : unf) std::printf(" %9.3f", s.mean());
  std::printf("\n");

  std::printf("\n==== paper-vs-measured summary ====\n");
  std::printf("unfairness reduction by ME-LREQ (positive = ME-LREQ fairer):\n");
  std::printf("  vs HF-RF: paper  +7.9%% avg / +32.5%% max     measured %s avg / %s max\n",
              bench::fmt_pct(melreq_cut_vs[0].mean()).c_str(),
              bench::fmt_pct(melreq_cut_vs[0].max()).c_str());
  std::printf("  vs RR:    paper  +7.6%% avg                  measured %s avg\n",
              bench::fmt_pct(melreq_cut_vs[2].mean()).c_str());
  std::printf("  vs LREQ:  paper +16.6%% avg (9.7%% in §5.3)   measured %s avg\n",
              bench::fmt_pct(melreq_cut_vs[3].mean()).c_str());
  std::printf("ME scheme unfairness vs HF-RF: paper +4.7%% avg (worst of all);\n");
  std::printf("  measured mean ME %.3f vs HF-RF %.3f (%s)\n", unf[1].mean(), unf[0].mean(),
              bench::fmt_pct(bench::pct(unf[1].mean(), unf[0].mean())).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("fig5_fairness", [&] { return run_bench(argc, argv); });
}
