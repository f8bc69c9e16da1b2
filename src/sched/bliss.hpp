// BLISS — the Blacklisting Memory Scheduler (Subramanian, Lee, Seshadri,
// Lakshminarayana & Mutlu, ICCD 2014; PAPERS.md "The Blacklisting Memory
// Scheduler"). The observation: full rank-ordering of threads (TCM, PAR-BS)
// is expensive and over-aggressive; it suffices to *blacklist* an
// application that has recently monopolised the controller and prefer
// everyone else.
//
// Mechanism as reproduced here:
//   * the controller tracks the current consecutive-serve streak per the
//     epoch/interval machinery (QueueSnapshot::streak_core/streak_len);
//   * when a core's streak reaches `streak_threshold` (paper: 4), prepare()
//     blacklists it;
//   * every `clearing_interval` bus ticks — epoch_ticks(); the paper clears
//     every 10000 CPU cycles, = 1250 ticks of our 400 MHz bus at the 8:1
//     clock ratio — on_epoch() wipes the blacklist, giving offenders a
//     fresh start;
//   * ranking is (non-blacklisted > blacklisted) ABOVE row hits
//     (hit_first_above_core() = false, matching the paper's priority order
//     "non-blacklisted > row-hit > age"), with arrival age breaking ties.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"

namespace memsched::sched {

class BlissScheduler final : public Scheduler {
 public:
  /// Paper defaults: blacklist after 4 consecutive serves, clear every
  /// 10000 CPU cycles = 1250 bus ticks (Table 2 of the BLISS paper, mapped
  /// through this model's 8:1 CPU:bus clock ratio).
  static constexpr std::uint32_t kDefaultStreakThreshold = 4;
  static constexpr Tick kDefaultClearingIntervalTicks = 1250;

  explicit BlissScheduler(std::uint32_t core_count,
                          std::uint32_t streak_threshold = kDefaultStreakThreshold,
                          Tick clearing_interval = kDefaultClearingIntervalTicks);

  [[nodiscard]] std::string name() const override { return "BLISS"; }

  void prepare(const QueueSnapshot& snap) override;
  [[nodiscard]] double core_priority(CoreId core) const override;
  /// Blacklist status dominates row hits (BLISS priority order).
  [[nodiscard]] bool hit_first_above_core() const override { return false; }
  [[nodiscard]] Tick epoch_ticks() const override { return clearing_interval_; }
  void on_epoch(Tick boundary, const QueueSnapshot& snap) override;
  void reset() override;

  /// Test/diagnostic accessors.
  [[nodiscard]] bool blacklisted(CoreId core) const { return blacklist_[core] != 0; }
  [[nodiscard]] std::uint64_t blacklist_events() const { return blacklist_events_; }
  [[nodiscard]] std::uint32_t streak_threshold() const { return streak_threshold_; }

  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  std::uint32_t streak_threshold_;
  Tick clearing_interval_;
  std::vector<std::uint8_t> blacklist_;  ///< per core, 1 = blacklisted
  std::uint64_t blacklist_events_ = 0;   ///< cores blacklisted since reset
};

}  // namespace memsched::sched
