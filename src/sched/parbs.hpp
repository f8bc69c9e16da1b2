// Parallelism-Aware Batch Scheduling, simplified (Mutlu & Moscibroda,
// ISCA 2008 — published the same year as the paper; included as a
// contemporaneous related-work baseline).
//
// PAR-BS groups outstanding requests into *batches*: when the current batch
// drains, up to `batch_cap` oldest requests of every core are marked as the
// new batch. Batched requests strictly outrank unbatched ones (this bounds
// any request's wait — strong starvation freedom), and within a batch cores
// are ranked shortest-job-first (fewest marked requests first) so light
// cores slip through quickly while heavy cores' bank-level parallelism is
// preserved.
//
// This simplified version tracks batch membership per core by counting:
// when a new batch forms, core i owes batch_quota[i] = min(batch_cap,
// pending_reads[i]) requests; every served request of core i decrements its
// quota while quota remains; the batch drains when every quota is zero.
// (The original marks individual requests; counting is equivalent under
// per-core FIFO service order, which the controller's within-core
// age-ordering provides.)
#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"

namespace memsched::sched {

class ParbsScheduler final : public Scheduler {
 public:
  explicit ParbsScheduler(std::uint32_t core_count, std::uint32_t batch_cap = 5);

  [[nodiscard]] std::string name() const override { return "PAR-BS"; }

  void prepare(const QueueSnapshot& snap) override;
  [[nodiscard]] double core_priority(CoreId core) const override;
  [[nodiscard]] bool random_core_tie_break() const override { return true; }
  void on_served(const mc::Request& req) override;
  void reset() override;

  /// Remaining batch quota of `core` (tests/diagnostics).
  [[nodiscard]] std::uint32_t quota(CoreId core) const { return quota_[core]; }
  [[nodiscard]] std::uint64_t batches_formed() const { return batches_; }

  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  std::uint32_t batch_cap_;
  std::vector<std::uint32_t> quota_;       ///< marked requests left per core
  std::vector<std::uint32_t> batch_size_;  ///< quota at batch formation (SJF rank)
  std::uint64_t batches_ = 0;
};

}  // namespace memsched::sched
