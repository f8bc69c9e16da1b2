// Open-loop controller tester: drives a MemoryController directly with a
// synthetic arrival process — no cores, no caches — to measure classic
// queueing behaviour (latency-vs-load curves, saturation points) per
// scheduling policy. Used by bench/latency_curves and the queueing tests.
//
// It has its own short run loop instead of MultiCoreSystem's kernel: the
// traffic source is a float injection accumulator, which the skip engine
// must advance one add per skipped tick to stay byte-identical with unit
// stepping. Open-loop runs take seconds and are not checkpointed.
#pragma once

#include <cstdint>

#include "mc/controller.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"
#include "verif/invariant_auditor.hpp"

namespace memsched::sim {

struct OpenLoopConfig {
  /// Time-advancement strategy; byte-identical results either way (the skip
  /// engine advances the injection accumulator per skipped tick and stops at
  /// every injection, poll boundary and controller event).
  Engine engine = Engine::kSkip;

  std::uint32_t cores = 4;
  double inject_per_tick = 0.2;  ///< aggregate offered load, requests/tick
  double write_share = 0.3;
  double seq_run_lines = 16.0;   ///< mean consecutive lines per core stream
  std::uint64_t footprint_lines = 1 << 22;  ///< per-core address range
  Tick warmup_ticks = 5'000;
  Tick measure_ticks = 40'000;
  std::uint64_t seed = 1;

  dram::Timing timing{};
  dram::Organization org{};
  dram::Interleave interleave = dram::Interleave::kHybrid;
  mc::ControllerConfig controller{};
  verif::AuditConfig audit{};  ///< same opt-in as the closed-loop system

  /// Forward-progress watchdog: no request retired for this many ticks with
  /// work queued raises sim::LivelockError. 0 disables.
  Tick progress_window_ticks = 200'000;

  /// Fault injection (chaos testing); off = bit-identical request path.
  mc::FaultConfig fault{};
};

struct OpenLoopResult {
  double offered_per_tick = 0.0;
  double accepted_per_tick = 0.0;  ///< < offered when the buffer rejects
  double rejected_share = 0.0;
  double avg_read_latency_ticks = 0.0;
  double p50_ticks = 0.0;
  double p90_ticks = 0.0;
  double p99_ticks = 0.0;
  double row_hit_rate = 0.0;
  double data_bus_utilization = 0.0;

  /// Offered load exceeded what the system could drain.
  [[nodiscard]] bool saturated() const { return rejected_share > 0.01; }
};

/// Runs the open-loop experiment; the scheduler is reset() first.
OpenLoopResult run_open_loop(const OpenLoopConfig& cfg, sched::Scheduler& scheduler);

}  // namespace memsched::sim
