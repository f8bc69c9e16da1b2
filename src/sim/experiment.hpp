// Experiment drivers: the paper's two-phase methodology as a library.
//
// Phase 1 (profiling, §3.1/Table 2): run each application alone on the
// single-core system with a *profiling* slice (seed) and measure
// IPC_single and BW_single -> ME via Equation 1.
//
// Phase 2 (evaluation, §4.1): run a Table-3 workload on the N-core system
// with an *evaluation* slice under a given scheduling scheme; compare per-
// core IPCs against single-core references (same evaluation slice length)
// to compute SMT speedup and unfairness.
#pragma once

#include <condition_variable>
#include <csignal>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/memory_efficiency.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "sim/workloads.hpp"

namespace memsched::util {
class Config;
}  // namespace memsched::util

namespace memsched::sim {

struct ExperimentConfig {
  SystemConfig base;  ///< cores field is overridden per run

  /// Scaled-down slice lengths (the paper uses 10M profiling / 100M
  /// evaluation instructions; synthetic streams are stationary and converge
  /// much faster — see DESIGN.md).
  std::uint64_t profile_insts = 1'000'000;
  std::uint64_t eval_insts = 300'000;
  std::uint64_t warmup_insts = 20'000;  ///< pipeline/queue settling before stats reset

  /// Distinct seeds stand in for the paper's distinct SimPoint selections
  /// for profiling vs. evaluation ("we use different simpoints for profiling
  /// and performance comparison").
  std::uint64_t profile_seed = 1001;
  std::uint64_t eval_seed = 2002;

  /// Evaluation slices averaged per (workload, scheme). The paper runs one
  /// 100M-instruction slice; our slices are shorter, so averaging a few
  /// independent ones recovers comparable statistical weight.
  std::uint32_t eval_repeats = 3;

  /// Priority-table entry width handed to ME-LREQ-HW (ablation knob).
  unsigned table_bits = 10;

  Tick max_ticks = Tick{1} << 40;

  /// Checkpoint/restore (docs/robustness.md). When `ckpt_dir` is non-empty,
  /// every sub-run (profiling, single-core reference, evaluation slice)
  /// saves periodic snapshots under it and resumes from a valid one — a
  /// killed-and-restarted experiment reproduces byte-identical results.
  /// Silently degraded to OFF while the invariant auditor is enabled (the
  /// auditor's shadow state is not serialized). `ckpt_stop` is the
  /// cooperative stop flag (typically ckpt::stop_flag()): when it fires the
  /// active sub-run parks its state and throws ckpt::CheckpointStop.
  std::string ckpt_dir;
  Tick ckpt_interval = 1'000'000;
  const volatile std::sig_atomic_t* ckpt_stop = nullptr;
};

/// Reads the experiment keys present in `cli` into `cfg`: insts, repeats,
/// warmup, profile_insts, seed, profile_seed, interleave, bank_xor, grade,
/// refresh, engine, verify and progress_window. An absent key keeps the
/// value `cfg` holds, so each front end sets its own defaults first; which
/// keys it accepts is its own Config::check_known list, checked before this.
/// A speed grade installs its whole timing, so refresh= applies after
/// grade=. Throws std::invalid_argument on a malformed value.
void read_experiment_keys(const util::Config& cli, ExperimentConfig& cfg);

/// One workload x scheme evaluation, averaged over eval_repeats slices.
struct WorkloadRun {
  std::string workload;
  std::string scheme;
  double smt_speedup = 0.0;
  double unfairness = 0.0;
  double avg_read_latency_cpu = 0.0;           ///< all cores, CPU cycles
  std::vector<double> core_read_latency_cpu;   ///< per core
  std::vector<double> ipc_multi;               ///< per core (mean over slices)
  std::vector<double> ipc_single;              ///< matching references
  double row_hit_rate = 0.0;
  double bus_utilization = 0.0;
  RunResult raw;  ///< full detail of the last slice
};

/// Single-core reference results: the profiling runs of Eq. 1 and the alone
/// runs of §4.1, keyed on everything that affects them (Experiment builds
/// the keys). One table may serve many Experiments and threads. Each key is
/// simulated at most once: a thread asking for a key in flight waits for
/// it, threads asking for other keys do not wait, and no lock is held
/// across a simulation. Entries are never erased, so references into the
/// table stay valid for its lifetime.
class ReferenceTable {
 public:
  /// The entry for `key`; calls `simulate` when it is absent. A throwing
  /// `simulate` leaves the key absent and its exception propagates.
  const core::MeProfile& get(const std::string& key,
                             const std::function<core::MeProfile()>& simulate);

  /// Writes every entry to `path` in the checkpoint format; IPC and
  /// bandwidth keep their exact bit patterns.
  void save(const std::string& path) const;

  /// Adds the entries of a file save() wrote and returns how many it read.
  /// Throws ckpt::SnapshotError on a damaged or foreign file.
  std::size_t load(const std::string& path);

  /// Reference simulations this process has run through any table.
  [[nodiscard]] static std::uint64_t simulations();

 private:
  mutable std::mutex mu_;
  std::condition_variable landed_;
  std::map<std::string, core::MeProfile> done_;
  std::set<std::string> in_flight_;
};

class Experiment {
 public:
  /// `refs` is the reference table to read and fill; by default the
  /// Experiment gets a table of its own.
  explicit Experiment(ExperimentConfig cfg,
                      std::shared_ptr<ReferenceTable> refs = nullptr);

  /// Profiled ME for one application (cached in the reference table).
  const core::MeProfile& profile(const std::string& app_name);

  /// Single-core IPC reference for one evaluation slice seed (cached).
  double single_ipc(const std::string& app_name, std::uint64_t seed);
  double single_ipc(const std::string& app_name) {
    return single_ipc(app_name, cfg_.eval_seed);
  }

  /// Profiled ME table for a workload (one entry per core).
  core::MeTable me_table_for(const Workload& w);

  /// Full evaluation of `w` under scheme `scheme_name` (factory names).
  WorkloadRun run(const Workload& w, const std::string& scheme_name);

  /// Simulates every reference that run() of `workloads` needs and the
  /// table lacks, one parallel_for task per distinct reference, longest
  /// first, on `threads` threads. The first failure propagates.
  void compute_references(const std::vector<Workload>& workloads, unsigned threads);

  /// System configuration with the core count overridden.
  [[nodiscard]] SystemConfig config_for(std::uint32_t cores) const;

  [[nodiscard]] const ExperimentConfig& config() const { return cfg_; }

 private:
  /// Checkpoint policy for one named sub-run; inert when ckpt_dir is empty
  /// or the auditor is enabled. `context` becomes both the snapshot file
  /// stem and part of the fingerprint, so snapshots from different sub-runs
  /// can never be confused.
  [[nodiscard]] ckpt::CheckpointPolicy policy_for(const std::string& context,
                                                  ckpt::ResumeInfo* info) const;

  /// Evaluation slice `rep`'s seed; its alone runs use the same one.
  [[nodiscard]] std::uint64_t slice_seed(std::uint32_t rep) const;

  /// Table key of one reference run: kind, the 1-core fingerprint, app,
  /// seed, instruction count, warm-up and tick budget.
  [[nodiscard]] std::string reference_key(const char* kind, const std::string& app_name,
                                          std::uint64_t seed, std::uint64_t insts) const;

  /// One single-core HF-RF reference run, checkpointed as `context`; `what`
  /// names it in a budget error.
  [[nodiscard]] core::MeProfile simulate_reference(const std::string& app_name,
                                                   std::uint64_t seed,
                                                   std::uint64_t insts,
                                                   const std::string& context,
                                                   const std::string& what) const;

  ExperimentConfig cfg_;
  std::string single_core_fp_;  ///< config_for(1).fingerprint()
  std::shared_ptr<ReferenceTable> refs_;
};

}  // namespace memsched::sim
