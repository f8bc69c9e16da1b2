// The paper's scheduling contributions (§3).
//
//   * MeScheduler       — "ME": fixed priority by profiled memory efficiency
//                         alone (evaluated as a strawman in §5.1/§5.2).
//   * MeLreqScheduler   — "ME-LREQ": Priority[i] = ME[i]/PendingRead[i]
//                         (Equation 2), combining the long-term ME signal
//                         with the short-term least-request signal.
//   * MeLreqTableScheduler — ME-LREQ through the Figure-1 hardware model:
//                         pre-computed 10-bit priority tables instead of
//                         run-time division.
//   * OnlineMeLreqScheduler — the future-work extension (§7): ME estimated
//                         at run time from per-epoch instruction and traffic
//                         counters instead of off-line profiling.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/memory_efficiency.hpp"
#include "core/priority_table.hpp"
#include "sched/scheduler.hpp"

namespace memsched::core {

/// Fixed priority by profiled ME (higher efficiency first). The paper shows
/// this starves low-ME cores and even loses to HF-RF on average.
class MeScheduler final : public sched::Scheduler {
 public:
  explicit MeScheduler(MeTable me) : me_(std::move(me)) {}

  [[nodiscard]] std::string name() const override { return "ME"; }
  [[nodiscard]] double core_priority(CoreId core) const override { return me_.me(core); }
  [[nodiscard]] bool random_core_tie_break() const override { return true; }

 private:
  MeTable me_;
};

/// ME-LREQ with the exact Equation-2 arithmetic.
class MeLreqScheduler final : public sched::Scheduler {
 public:
  explicit MeLreqScheduler(MeTable me) : me_(std::move(me)) {}

  [[nodiscard]] std::string name() const override { return "ME-LREQ"; }

  void prepare(const sched::QueueSnapshot& snap) override { snap_ = snap; }

  [[nodiscard]] double core_priority(CoreId core) const override {
    const std::uint32_t pending = snap_.pending_reads[core];
    if (pending == 0) return -std::numeric_limits<double>::infinity();
    return me_.me(core) / static_cast<double>(pending);
  }

  [[nodiscard]] bool random_core_tie_break() const override { return true; }

 private:
  MeTable me_;
  sched::QueueSnapshot snap_{};
};

/// ME-LREQ through the hardware priority tables (Figure 1): integer table
/// lookups; quantisation collisions resolved by the random tie-break.
class MeLreqTableScheduler final : public sched::Scheduler {
 public:
  explicit MeLreqTableScheduler(const MeTable& me,
                                std::uint32_t max_pending = PriorityTable::kDefaultMaxPending,
                                unsigned bits = PriorityTable::kDefaultBits)
      : table_(me, max_pending, bits) {}

  [[nodiscard]] std::string name() const override { return "ME-LREQ-HW"; }

  void prepare(const sched::QueueSnapshot& snap) override { snap_ = snap; }

  [[nodiscard]] double core_priority(CoreId core) const override {
    const std::uint32_t pending = snap_.pending_reads[core];
    if (pending == 0) return -std::numeric_limits<double>::infinity();
    return static_cast<double>(table_.lookup(core, pending));
  }

  [[nodiscard]] bool random_core_tie_break() const override { return true; }

  [[nodiscard]] const PriorityTable& table() const { return table_; }

 private:
  PriorityTable table_;
  sched::QueueSnapshot snap_{};
};

/// Generalized ME-LREQ (§7 future work: "explore other design choices in
/// the combination"): Priority[i] = ME[i]^alpha / PendingRead[i]^beta.
/// (1, 1) is the paper's Equation 2; (0, 1) degenerates to LREQ; (1, 0) to
/// the fixed-priority ME scheme. The ablation bench sweeps the exponents.
class GeneralizedMeLreqScheduler final : public sched::Scheduler {
 public:
  GeneralizedMeLreqScheduler(MeTable me, double alpha, double beta);

  [[nodiscard]] std::string name() const override;

  void prepare(const sched::QueueSnapshot& snap) override { snap_ = snap; }
  [[nodiscard]] double core_priority(CoreId core) const override;
  [[nodiscard]] bool random_core_tie_break() const override { return true; }

  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double beta() const { return beta_; }

 private:
  MeTable me_;
  double alpha_;
  double beta_;
  std::vector<double> me_pow_;  ///< ME[i]^alpha, precomputed
  sched::QueueSnapshot snap_{};
};

/// Online ME estimation (§7 future work). The simulation kernel feeds
/// per-epoch (committed instructions, DRAM bytes) samples through
/// on_epoch(); ME is an exponentially weighted moving average of
/// insts-per-byte, rescaled to the same GB/s units as Equation 1 so its
/// magnitude is comparable with profiled values. Until a core's first
/// sample arrives it is treated neutrally (all cores equal).
class OnlineMeLreqScheduler final : public sched::Scheduler {
 public:
  /// `alpha` is the EWMA weight of the newest epoch; `cpu_hz` converts the
  /// per-epoch ratio into IPC-per-GB/s units.
  explicit OnlineMeLreqScheduler(std::uint32_t core_count, double alpha = 0.25,
                                 double cpu_hz = 3.2e9);

  [[nodiscard]] std::string name() const override { return "ME-LREQ-ONLINE"; }

  void prepare(const sched::QueueSnapshot& snap) override { snap_ = snap; }
  [[nodiscard]] double core_priority(CoreId core) const override;
  [[nodiscard]] bool random_core_tie_break() const override { return true; }
  void on_epoch(CoreId core, double committed_insts, double dram_bytes) override;
  void reset() override;

  /// Current estimate (for tests/diagnostics); 0 until the first sample.
  [[nodiscard]] double estimated_me(CoreId core) const { return me_est_.at(core); }

  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  double alpha_;
  double cpu_hz_;
  std::vector<double> me_est_;
  std::vector<bool> seeded_;
  sched::QueueSnapshot snap_{};
};

}  // namespace memsched::core
