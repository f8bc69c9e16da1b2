// TCM — Thread Cluster Memory scheduling (Kim, Papamichael, Mutlu &
// Harchol-Balter, MICRO 2010; see SNIPPETS.md Snippet 1's `tcm_*`
// machinery). Threads are partitioned every quantum into a
// *latency-sensitive* cluster (light memory users, prioritised outright —
// they barely cost bandwidth but stall hard) and a *bandwidth-sensitive*
// cluster (heavy users, fair-shared among themselves).
//
// Reproduced mechanism, per quantum (epoch_ticks()):
//   * sort cores by interval bandwidth use (QueueSnapshot::interval_served,
//     lightest first; core id breaks ties for determinism);
//   * greedily place cores into the latency cluster while their cumulative
//     served share stays <= ClusterThresh (paper default 2/10) of the total;
//   * latency cluster: ranked by interval_arrivals ascending — the fewer
//     requests a core injects the higher it ranks (MPKI proxy; TCM ranks by
//     MPKI, which this model does not measure per-core at the controller);
//   * bandwidth cluster: rank order *rotates* once per quantum ("insertion
//     shuffle" stand-in). TCM's periodic shuffling randomises ranks to
//     spread interference; a deterministic rotation keeps the
//     fairness-spreading effect while preserving the repo's run-to-run
//     determinism and engine-equivalence contracts (documented deviation).
//
// Every core is always in exactly one cluster — the partition is a disjoint
// cover, which the property tests assert.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"

namespace memsched::sched {

class TcmScheduler final : public Scheduler {
 public:
  /// Defaults: 2500-bus-tick quantum (TCM re-clusters every 1M CPU cycles;
  /// scaled down to this model's sub-ms runs while keeping many serves per
  /// quantum) and ClusterThresh = 0.2 (paper default 2/10).
  static constexpr Tick kDefaultQuantumTicks = 2500;

  explicit TcmScheduler(std::uint32_t core_count,
                        Tick quantum_ticks = kDefaultQuantumTicks,
                        double cluster_thresh = 0.2);

  [[nodiscard]] std::string name() const override { return "TCM"; }

  [[nodiscard]] double core_priority(CoreId core) const override {
    return priority_[core];
  }
  [[nodiscard]] bool random_core_tie_break() const override { return true; }
  [[nodiscard]] Tick epoch_ticks() const override { return quantum_; }
  void on_epoch(Tick boundary, const QueueSnapshot& snap) override;
  void reset() override;

  /// Cluster membership after the last on_epoch (tests/diagnostics). Before
  /// the first quantum both clusters are empty and all priorities are equal.
  [[nodiscard]] const std::vector<CoreId>& latency_cluster() const {
    return latency_cluster_;
  }
  [[nodiscard]] const std::vector<CoreId>& bandwidth_cluster() const {
    return bandwidth_cluster_;
  }
  [[nodiscard]] std::uint64_t quanta() const { return quanta_; }

  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  std::uint32_t core_count_;
  Tick quantum_;
  double cluster_thresh_;
  std::vector<double> priority_;          ///< per core; rebuilt each quantum
  std::vector<CoreId> latency_cluster_;   ///< lightest cores, highest ranks
  std::vector<CoreId> bandwidth_cluster_; ///< heavy cores, rotated ranks
  std::uint64_t quanta_ = 0;              ///< completed quanta (shuffle phase)
};

}  // namespace memsched::sched
