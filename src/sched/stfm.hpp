// Stall-Time-Fair Memory scheduling, simplified (Mutlu & Moscibroda,
// MICRO 2007 — the paper's reference [11] and §6 contrast).
//
// STFM's principle: equalise per-thread *slowdowns* S_i = T_shared/T_alone.
// While the measured unfairness max_i S_i / min_j S_j stays below a
// threshold alpha, the scheduler stays out of the way (plain hit-first /
// arrival order); once it exceeds alpha, the most-slowed thread's requests
// get priority until balance is restored.
//
// The original estimates T_alone in hardware from interference counters;
// this reproduction derives slowdowns from profiled single-core IPCs (the
// same profiling pass ME-LREQ already requires) and per-epoch committed-
// instruction counts delivered through Scheduler::on_epoch — behaviourally
// equivalent for stationary workloads and far simpler.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"

namespace memsched::sched {

class StfmScheduler final : public Scheduler {
 public:
  /// `ipc_single[i]` is core i's profiled alone-IPC; `epoch_cpu_cycles` the
  /// CPU-cycle length of one on_epoch interval; `alpha` the unfairness
  /// threshold above which the scheduler intervenes (paper value ~1.10);
  /// `ewma_alpha` smooths the per-epoch IPC estimate.
  StfmScheduler(std::vector<double> ipc_single, double epoch_cpu_cycles,
                double alpha = 1.10, double ewma_alpha = 0.25);

  [[nodiscard]] std::string name() const override { return "STFM"; }

  void prepare(const QueueSnapshot& snap) override;
  [[nodiscard]] double core_priority(CoreId core) const override;
  [[nodiscard]] bool random_core_tie_break() const override { return true; }
  void on_epoch(CoreId core, double committed_insts, double dram_bytes) override;
  void reset() override;

  /// Current slowdown estimate for tests/diagnostics (1.0 until seeded).
  [[nodiscard]] double slowdown(CoreId core) const { return slowdown_[core]; }

  /// Whether the fairness rule is currently engaged.
  [[nodiscard]] bool intervening() const { return intervening_; }

  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  std::vector<double> ipc_single_;
  double epoch_cpu_cycles_;
  double alpha_;
  double ewma_alpha_;
  std::vector<double> ipc_est_;    ///< EWMA of per-epoch shared-mode IPC
  std::vector<bool> seeded_;
  std::vector<double> slowdown_;   ///< ipc_single / ipc_est
  bool intervening_ = false;
};

}  // namespace memsched::sched
