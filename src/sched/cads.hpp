// CADS — core-aware dynamic scheduling (after the core-aware dynamic
// scheduler of PAPERS.md; also in the spirit of ATLAS's long-term attained
// service ranking). Where BLISS reacts to streaks and TCM re-partitions per
// quantum, CADS keeps a smooth per-core *pressure score* — an exponentially
// weighted moving average of each core's served transactions per interval —
// and ranks cores inversely to it: the less service a core has attained
// recently, the higher it ranks. A bandwidth hog's score grows every
// interval it keeps hogging, so its priority decays monotonically (the
// property tests pin this), while a latency-sensitive core that issues a
// burst after idling is served first.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"

namespace memsched::sched {

class CadsScheduler final : public Scheduler {
 public:
  /// Defaults: 2000-bus-tick adaptation interval, EWMA weight 0.25 for the
  /// newest interval — a ~4-interval memory, long enough to ride out bursts
  /// and short enough to track phase changes within a measurement slice.
  static constexpr Tick kDefaultIntervalTicks = 2000;

  explicit CadsScheduler(std::uint32_t core_count,
                         Tick interval_ticks = kDefaultIntervalTicks,
                         double alpha = 0.25);

  [[nodiscard]] std::string name() const override { return "CADS"; }

  [[nodiscard]] double core_priority(CoreId core) const override {
    // Inverse attained service: higher recent bandwidth -> lower rank.
    return -score_[core];
  }
  [[nodiscard]] bool random_core_tie_break() const override { return true; }
  [[nodiscard]] Tick epoch_ticks() const override { return interval_; }
  void on_epoch(Tick boundary, const QueueSnapshot& snap) override;
  void reset() override;

  /// EWMA attained-service score of `core` (tests/diagnostics).
  [[nodiscard]] double score(CoreId core) const { return score_[core]; }

  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  Tick interval_;
  double alpha_;
  std::vector<double> score_;  ///< per core EWMA of interval_served
};

}  // namespace memsched::sched
