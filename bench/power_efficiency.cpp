// Extension bench (no paper counterpart): DRAM power and energy efficiency
// under the five scheduling schemes on the 4-core MEM workloads.
//
// Scheduling shapes DRAM energy through the row-hit rate (every avoided
// ACT/PRE pair saves activate energy) and through runtime (background
// power integrates over the whole run). Reported per scheme: average DRAM
// power, energy per kilo-instruction, and the activate-energy share.
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
const std::vector<std::string> kSchemes = {"HF-RF", "ME", "RR", "LREQ", "ME-LREQ"};
}

namespace {

int run_bench(int argc, char** argv) {
  const BenchSetup setup = BenchSetup::parse(argc, argv);
  bench::print_header(setup, "Extension — DRAM power/energy by scheduling scheme",
                      "row-hit-friendly scheduling avoids ACT/PRE energy; faster "
                      "runs amortize background power");

  sim::Experiment exp(setup.experiment);
  bench::CsvSink csv(setup.csv_path);
  csv.row({"workload", "scheme", "avg_power_w", "energy_uj_per_kinst",
           "activate_share", "row_hit_rate"});

  const auto workloads = sim::table3_workloads(4, "MEM");

  const auto rows = bench::run_grid(exp, workloads, kSchemes);

  std::printf("%-8s %-9s %10s %14s %10s %8s\n", "mix", "scheme", "power(W)",
              "uJ/kinst", "ACT-share", "row-hit");
  util::RunningStat power_by_scheme[5], energy_by_scheme[5];
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    for (std::size_t si = 0; si < kSchemes.size(); ++si) {
      const sim::WorkloadRun& r = rows[wi][si];
      const auto& e = r.raw.dram_energy;
      std::uint64_t insts = 0;
      for (const auto& c : r.raw.cores) insts += c.committed;
      const double uj_per_kinst = e.total() * 1e6 / (static_cast<double>(insts) / 1000.0);
      const double act_share = e.total() > 0 ? e.activate / e.total() : 0.0;
      std::printf("%-8s %-9s %10.3f %14.2f %10.2f %8.2f\n",
                  workloads[wi].name.c_str(), kSchemes[si].c_str(),
                  r.raw.dram_power_watts, uj_per_kinst, act_share, r.row_hit_rate);
      power_by_scheme[si].add(r.raw.dram_power_watts);
      energy_by_scheme[si].add(uj_per_kinst);
      csv.row({workloads[wi].name, kSchemes[si], util::fmt(r.raw.dram_power_watts, 3),
               util::fmt(uj_per_kinst, 2), util::fmt(act_share, 3),
               util::fmt(r.row_hit_rate, 3)});
    }
  }

  std::printf("\nmeans over 4MEM mixes:\n%-9s %10s %14s\n", "scheme", "power(W)",
              "uJ/kinst");
  for (std::size_t si = 0; si < kSchemes.size(); ++si) {
    std::printf("%-9s %10.3f %14.2f\n", kSchemes[si].c_str(),
                power_by_scheme[si].mean(), energy_by_scheme[si].mean());
  }
  std::printf("\nexpected: schemes with higher row-hit rates / shorter runtimes\n"
              "spend fewer microjoules per kilo-instruction; HF-RF's head-of-line\n"
              "stalls stretch runtime and pay background power for it.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("power_efficiency", [&] { return run_bench(argc, argv); });
}
