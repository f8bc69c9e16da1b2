#include "harness/bench_registry.hpp"

namespace memsched::harness {

const std::vector<BenchEntry>& bench_registry() {
  // cost_weight is the bench's measured smoke-run wall time relative to
  // fig2's: one `memsched_sweep benches jobs=1` run on a 4-vCPU host
  // (fig2 8.3 s, ablation 40.1 s, the rest 0.4-2.0 s). The parallel sweep
  // launches the heaviest benches first so the pool never ends with one
  // long-running straggler on a lone worker; a timing sidecar from a real
  // run replaces these hints.
  static const std::vector<BenchEntry> registry = {
      {"table2_memory_efficiency",
       {"insts=40000", "repeats=1", "profile_insts=100000"}, 0.05},
      {"fig2_smt_speedup", {"insts=30000", "repeats=1", "profile_insts=80000"}, 1.0},
      {"fig3_fixed_priority",
       {"insts=40000", "repeats=1", "profile_insts=100000"}, 0.23},
      {"fig4_read_latency",
       {"insts=40000", "repeats=1", "profile_insts=100000"}, 0.16},
      {"fig5_fairness", {"insts=40000", "repeats=1", "profile_insts=100000"}, 0.17},
      {"ablation_design_choices",
       {"insts=30000", "repeats=1", "profile_insts=80000"}, 4.8},
      {"power_efficiency", {"insts=30000", "repeats=1", "profile_insts=80000"}, 0.12},
      {"sensitivity_sweep", {"insts=20000", "repeats=1", "profile_insts=60000"}, 0.24},
      {"latency_curves", {}, 0.24},
  };
  return registry;
}

}  // namespace memsched::harness
