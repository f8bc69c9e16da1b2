// Baseline scheduling policies (paper §2 and §5.2).
//
// The paper's own contribution (ME and ME-LREQ, §3) lives in src/core; these
// are the conventional schemes it is evaluated against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sched/scheduler.hpp"

namespace memsched::sched {

/// Naive first-come first-serve: arrival order across reads *and* writes,
/// no row-hit preference (§2 "FCFS").
class FcfsScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "FCFS"; }
  [[nodiscard]] double core_priority(CoreId) const override { return 0.0; }
  [[nodiscard]] bool use_hit_first() const override { return false; }
  [[nodiscard]] bool use_read_first() const override { return false; }
  [[nodiscard]] std::uint32_t sched_window() const override { return 1; }
};

/// FCFS with read-bypass-write (§2 "Read-First").
class FcfsReadFirstScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "FCFS-RF"; }
  [[nodiscard]] double core_priority(CoreId) const override { return 0.0; }
  [[nodiscard]] bool use_hit_first() const override { return false; }
  [[nodiscard]] std::uint32_t sched_window() const override { return 1; }
};

/// Hit-First with Read-First — the paper's performance baseline: row-buffer
/// hits before misses, reads bypass writes, arrival order among misses
/// within a bounded scheduling window (kDefaultWindow oldest requests per
/// channel; a conventional arrival-indexed scheduler's lookahead). The
/// unbounded variant ("HF-RF-OOO", window = 0) is an FR-FCFS-style upgrade
/// used by the ablation study to isolate how much of the thread-aware
/// schemes' gain is pure bank-level parallelism.
class HitFirstReadFirstScheduler final : public Scheduler {
 public:
  static constexpr std::uint32_t kDefaultWindow = 8;

  explicit HitFirstReadFirstScheduler(std::uint32_t window = kDefaultWindow)
      : window_(window) {}
  [[nodiscard]] std::string name() const override {
    return window_ == 0 ? "HF-RF-OOO" : "HF-RF";
  }
  [[nodiscard]] double core_priority(CoreId) const override { return 0.0; }
  [[nodiscard]] std::uint32_t sched_window() const override { return window_; }

 private:
  std::uint32_t window_;
};

/// Decorator that drops the hit-first-above-thread rule of the wrapped
/// scheme, making core priority dominate outright (the literal Figure-1
/// reading). Used by the ablation bench to quantify the design choice.
class ThreadOverHit final : public Scheduler {
 public:
  explicit ThreadOverHit(SchedulerPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name() + "/TOH"; }
  void prepare(const QueueSnapshot& snap) override { inner_->prepare(snap); }
  [[nodiscard]] double core_priority(CoreId core) const override {
    return inner_->core_priority(core);
  }
  [[nodiscard]] bool hit_first_above_core() const override { return false; }
  [[nodiscard]] bool use_hit_first() const override { return inner_->use_hit_first(); }
  [[nodiscard]] bool use_read_first() const override { return inner_->use_read_first(); }
  [[nodiscard]] bool random_core_tie_break() const override {
    return inner_->random_core_tie_break();
  }
  void on_served(const mc::Request& req) override { inner_->on_served(req); }
  void on_epoch(CoreId core, double insts, double bytes) override {
    inner_->on_epoch(core, insts, bytes);
  }
  [[nodiscard]] Tick epoch_ticks() const override { return inner_->epoch_ticks(); }
  void on_epoch(Tick boundary, const QueueSnapshot& snap) override {
    inner_->on_epoch(boundary, snap);
  }
  void reset() override { inner_->reset(); }
  void save_state(ckpt::Writer& w) const override { inner_->save_state(w); }
  void load_state(ckpt::Reader& r) override { inner_->load_state(r); }

 private:
  SchedulerPtr inner_;
};

/// Round-Robin across cores (§2): the core closest after the last-served
/// core wins. Destroys per-core spatial locality by construction, which is
/// exactly the behaviour the paper discusses.
class RoundRobinScheduler final : public Scheduler {
 public:
  explicit RoundRobinScheduler(std::uint32_t core_count)
      : core_count_(core_count) {}

  [[nodiscard]] std::string name() const override { return "RR"; }

  [[nodiscard]] double core_priority(CoreId core) const override {
    // Distance from the token: the next core after last_served_ ranks
    // highest. Negated so "higher is better".
    const std::uint32_t dist = (core + core_count_ - 1 - last_served_) % core_count_;
    return -static_cast<double>(dist);
  }

  void on_served(const mc::Request& req) override { last_served_ = req.core; }
  void reset() override { last_served_ = 0; }
  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  std::uint32_t core_count_;
  CoreId last_served_ = 0;
};

/// Least-Request (§2, from Zhu & Zhang HPCA'05 [19]): the core with the
/// fewest pending read requests wins; ties broken randomly.
class LeastRequestScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "LREQ"; }

  void prepare(const QueueSnapshot& snap) override { snap_ = snap; }

  [[nodiscard]] double core_priority(CoreId core) const override {
    const std::uint32_t pending = snap_.pending_reads[core];
    // Cores with no pending reads cannot win anyway (they have no eligible
    // requests); rank them lowest to keep the priority total order clean.
    if (pending == 0) return -std::numeric_limits<double>::infinity();
    return -static_cast<double>(pending);
  }

  [[nodiscard]] bool random_core_tie_break() const override { return true; }

 private:
  QueueSnapshot snap_{};
};

/// Fair-queueing scheduler, in the spirit of Nesbit et al. [12] which the
/// paper contrasts against in §6: each core owns a virtual clock that
/// advances by an N-core-share of the service quantum whenever one of its
/// requests is served; the earliest virtual finish time wins. Provides
/// strong fairness without any application knowledge — the counterpoint to
/// ME-LREQ's efficiency-weighted allocation.
class FairQueueScheduler final : public Scheduler {
 public:
  /// `quantum_ticks` approximates one transaction's service time; only its
  /// ratio to itself matters, so the default is uncritical.
  explicit FairQueueScheduler(std::uint32_t core_count, double quantum_ticks = 12.0)
      : core_count_(core_count), quantum_(quantum_ticks), vft_(core_count, 0.0) {}

  [[nodiscard]] std::string name() const override { return "FQ"; }

  void prepare(const QueueSnapshot& snap) override {
    now_ = static_cast<double>(snap.now);
  }

  [[nodiscard]] double core_priority(CoreId core) const override {
    // Earliest virtual finish time first.
    return -std::max(vft_[core], now_);
  }

  void on_served(const mc::Request& req) override {
    vft_[req.core] = std::max(vft_[req.core], now_) +
                     quantum_ * static_cast<double>(core_count_);
  }

  [[nodiscard]] bool random_core_tie_break() const override { return true; }

  void reset() override { std::fill(vft_.begin(), vft_.end(), 0.0); }
  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  std::uint32_t core_count_;
  double quantum_;
  double now_ = 0.0;
  std::vector<double> vft_;
};

/// Fixed core-priority order (§5.2 FIX-3210 / FIX-0123): `order[0]` is the
/// most important core.
class FixOrderScheduler final : public Scheduler {
 public:
  explicit FixOrderScheduler(std::vector<CoreId> order);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double core_priority(CoreId core) const override {
    return rank_[core];
  }

  /// Convenience factories matching the paper's two schemes for n cores:
  /// descending (FIX-3210 generalised) and ascending (FIX-0123).
  static SchedulerPtr descending(std::uint32_t core_count);
  static SchedulerPtr ascending(std::uint32_t core_count);

 private:
  std::vector<CoreId> order_;
  std::vector<double> rank_;  ///< indexed by core id; higher wins
  std::string name_;          ///< built once; name() is called per repeat
};

}  // namespace memsched::sched
