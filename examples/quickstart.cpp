// Quickstart: profile two applications, build a 4-core workload, and compare
// the paper's ME-LREQ scheduler against the HF-RF baseline.
//
//   ./quickstart [insts=200000] [seed=2002] [workload=4MEM-1]
//
// This is the ~60-line tour of the public API: Experiment wraps the whole
// profile -> evaluate methodology; everything it does can also be driven
// manually (see custom_policy.cpp for the lower-level route).
#include <cstdio>
#include <stdexcept>
#include <string>

#include "sim/experiment.hpp"
#include "sim/workloads.hpp"
#include "harness/guarded_main.hpp"
#include "util/config.hpp"

namespace {

int run_example(int argc, char** argv) {
  using namespace memsched;

  util::Config cli;
  if (auto err = cli.parse_args(argc, argv)) {
    std::fprintf(stderr, "usage: quickstart [key=value]...\n%s\n", err->c_str());
    throw std::invalid_argument(*err);
  }
  if (auto err = cli.check_known({"insts", "profile_insts", "repeats", "seed", "workload"}))
    throw std::invalid_argument(*err);

  sim::ExperimentConfig cfg;  // defaults reproduce the paper's Table 1
  cfg.eval_insts = 200'000;
  sim::read_experiment_keys(cli, cfg);
  sim::Experiment exp(cfg);

  const std::string name = cli.get_string("workload", "4MEM-1");
  const sim::Workload& w = sim::workload_by_name(name);

  std::printf("workload %s:", w.name.c_str());
  for (const auto& app : w.apps()) {
    std::printf(" %s(ME=%.3f)", app.name.c_str(),
                exp.profile(app.name).memory_efficiency);
  }
  std::printf("\n\n%-10s %-12s %-12s %-10s %s\n", "scheme", "SMT-speedup",
              "unfairness", "read-lat", "per-core IPC");

  for (const std::string scheme : {"HF-RF", "RR", "LREQ", "ME", "ME-LREQ"}) {
    const sim::WorkloadRun r = exp.run(w, scheme);
    std::printf("%-10s %-12.4f %-12.3f %-10.0f [", r.scheme.c_str(), r.smt_speedup,
                r.unfairness, r.raw.avg_read_latency_cpu);
    for (std::size_t c = 0; c < r.ipc_multi.size(); ++c)
      std::printf("%s%.3f", c ? " " : "", r.ipc_multi[c]);
    std::printf("]\n");
  }

  const sim::WorkloadRun base = exp.run(w, "HF-RF");
  const sim::WorkloadRun ours = exp.run(w, "ME-LREQ");
  std::printf("\nME-LREQ over HF-RF: %+.2f%% SMT speedup\n",
              (ours.smt_speedup / base.smt_speedup - 1.0) * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return memsched::harness::guarded_main("quickstart",
                                         [&] { return run_example(argc, argv); });
}
