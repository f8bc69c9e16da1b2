// Traced rigs: the simulator assembled from its public constructors and
// driven by the same loops as MultiCoreSystem::run and run_open_loop, with a
// span around every call into a layer. Used only by the traced benchmark
// run; the timed run calls the real entry points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/controller.hpp"
#include "sched/scheduler.hpp"
#include "sim/open_loop.hpp"
#include "sim/system_config.hpp"
#include "trace/app_profile.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Forwarding decorator around a real scheduler: counts every call and,
/// when a tracer is attached, records a `sched` span around the ranking and
/// notification hooks. Every query forwards unchanged, so results are
/// byte-identical to running the inner scheduler directly.
class TracedScheduler final : public memsched::sched::Scheduler {
 public:
  TracedScheduler(memsched::sched::Scheduler& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void prepare(const memsched::sched::QueueSnapshot& snap) override;
  [[nodiscard]] double core_priority(memsched::CoreId core) const override;
  [[nodiscard]] bool hit_first_above_core() const override {
    return inner_.hit_first_above_core();
  }
  [[nodiscard]] bool use_hit_first() const override { return inner_.use_hit_first(); }
  [[nodiscard]] bool use_read_first() const override { return inner_.use_read_first(); }
  [[nodiscard]] std::uint32_t sched_window() const override { return inner_.sched_window(); }
  [[nodiscard]] bool random_core_tie_break() const override {
    return inner_.random_core_tie_break();
  }
  void on_served(const memsched::mc::Request& req) override;
  void on_epoch(memsched::CoreId core, double committed_insts, double dram_bytes) override;
  [[nodiscard]] memsched::Tick epoch_ticks() const override { return inner_.epoch_ticks(); }
  void on_epoch(memsched::Tick boundary, const memsched::sched::QueueSnapshot& snap) override;
  void reset() override { inner_.reset(); }
  void save_state(memsched::ckpt::Writer& w) const override { inner_.save_state(w); }
  void load_state(memsched::ckpt::Reader& r) override { inner_.load_state(r); }

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t priority_calls() const { return priority_calls_; }
  [[nodiscard]] std::uint64_t served() const { return served_; }
  [[nodiscard]] std::uint64_t epoch_calls() const { return epoch_calls_; }

 private:
  memsched::sched::Scheduler& inner_;
  Tracer* tracer_;
  std::uint64_t rounds_ = 0;
  mutable std::uint64_t priority_calls_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t epoch_calls_ = 0;
};

/// What the closed-loop rig observed. The first block must equal the
/// matching MultiCoreSystem::run result; the rest feeds layer metrics.
struct ClosedRigResult {
  memsched::Tick ticks = 0;
  memsched::Tick visited = 0;
  std::vector<std::uint64_t> committed;
  memsched::mc::ControllerStats controller_stats;

  double wall_s = 0.0;             ///< the skip loop only, construction excluded
  double l2_miss_ratio = 0.0;      ///< measurement phase
  std::uint64_t retry_cycles = 0;  ///< Σ cores' L2-MSHR / controller back-pressure stalls
  double bus_utilization = 0.0;
};

/// Builds the system exactly as MultiCoreSystem's application constructor
/// does (streams, DRAM, controller, hierarchy including warm(), cores, fill
/// routing) and runs the skip engine's warmup-then-measure protocol with
/// spans around every layer call. `cfg` must select the skip engine with
/// audit and fault injection off.
ClosedRigResult run_closed_rig(const memsched::sim::SystemConfig& cfg,
                               const std::vector<memsched::trace::AppProfile>& apps,
                               memsched::sched::Scheduler& scheduler, std::uint64_t seed,
                               std::uint64_t target_insts, std::uint64_t warmup_insts,
                               Tracer& tracer);

struct OpenRigResult {
  memsched::sim::OpenLoopResult result;
  memsched::Tick ticks = 0;
  memsched::Tick visited = 0;
  double wall_s = 0.0;
};

/// Same loop as sim::run_open_loop (skip engine, no checkpointing), with
/// spans and a visited-tick count, which the library result does not expose.
OpenRigResult run_open_rig(const memsched::sim::OpenLoopConfig& cfg,
                           memsched::sched::Scheduler& scheduler, Tracer& tracer);

/// Host nanoseconds per instruction of standalone replays over every core's
/// synthetic stream: `next()` (the detailed engine's path), `next_ref`
/// batches (the fast-forward path), and CoreModel::functional_advance on a
/// freshly warmed hierarchy (fast-forward including its stream reads).
struct ReplayCost {
  double next_ns_per_inst = 0.0;
  double next_ref_ns_per_inst = 0.0;
  double functional_ns_per_inst = 0.0;
  std::uint64_t sink = 0;  ///< folds in every replayed value so none is optimized away
};
ReplayCost replay_streams(const memsched::sim::SystemConfig& cfg,
                          const std::vector<memsched::trace::AppProfile>& apps,
                          std::uint64_t seed, std::uint64_t insts_per_core);

/// Canonical text of every OpenLoopResult field, for equality checks and
/// digests.
std::string open_loop_record(const memsched::sim::OpenLoopResult& r);

/// Canonical text of every ControllerStats counter and latency statistic.
std::string controller_stats_record(const memsched::mc::ControllerStats& s);

}  // namespace perfbench
