#include "sim/open_loop.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "dram/dram_system.hpp"
#include "mc/fault_injector.hpp"
#include "sim/watchdog.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace memsched::sim {

OpenLoopResult run_open_loop(const OpenLoopConfig& cfg, sched::Scheduler& scheduler) {
  MEMSCHED_ASSERT(cfg.cores > 0, "open loop needs at least one core");
  MEMSCHED_ASSERT(cfg.inject_per_tick > 0.0, "offered load must be positive");
  if (cfg.engine == Engine::kSampled) {
    throw std::invalid_argument(
        "engine=sampled applies to closed-loop core-driven runs only: the "
        "open loop has no instruction stream to fast-forward (use skip)");
  }

  dram::DramSystem dram(cfg.timing, cfg.org, cfg.interleave);
  scheduler.reset();
  mc::MemoryController mcu(dram, scheduler, cfg.controller, cfg.cores, cfg.seed);
  std::unique_ptr<verif::InvariantAuditor> auditor;
  if (cfg.audit.enabled) {
    auditor = std::make_unique<verif::InvariantAuditor>(dram, mcu, cfg.audit);
  }
  std::unique_ptr<mc::FaultInjector> fault;
  if (cfg.fault.enabled) {
    fault = std::make_unique<mc::FaultInjector>(cfg.fault);
    mcu.set_fault_injector(fault.get());
  }
  ProgressWatchdog watchdog(cfg.progress_window_ticks);

  util::Xoshiro256 rng(cfg.seed ^ 0x0be9100bULL);
  // Per-core sequential stream cursors with geometric run lengths, giving
  // the same row-locality texture the closed-loop system produces.
  std::vector<std::uint64_t> cursor(cfg.cores);
  std::vector<std::uint32_t> run_left(cfg.cores, 0);
  for (auto& c : cursor) c = rng.below(cfg.footprint_lines);

  std::uint64_t offered = 0, accepted = 0;
  double carry = 0.0;
  bool measuring = false;
  Tick measure_start = 0;

  const Tick total = cfg.warmup_ticks + cfg.measure_ticks;
  Tick now = 0;
  while (now < total) {
    if (!measuring && now >= cfg.warmup_ticks) {
      measuring = true;
      measure_start = now;
      mcu.reset_stats();
      offered = accepted = 0;
    }
    carry += cfg.inject_per_tick;
    while (carry >= 1.0) {
      carry -= 1.0;
      ++offered;
      const auto core = static_cast<CoreId>(rng.below(cfg.cores));
      if (run_left[core] == 0) {
        cursor[core] = rng.below(cfg.footprint_lines);
        run_left[core] = 1 + util::geometric_run(
                                 rng, 1.0 - 1.0 / cfg.seq_run_lines, 256);
      }
      --run_left[core];
      const Addr addr =
          (static_cast<Addr>(core) * cfg.footprint_lines + cursor[core]) * kLineBytes;
      cursor[core] = (cursor[core] + 1) % cfg.footprint_lines;
      const bool ok = rng.chance(cfg.write_share) ? mcu.enqueue_write(core, addr, now)
                                                  : mcu.enqueue_read(core, addr, now);
      accepted += ok;
    }
    mcu.tick(now);
    if ((now & kWatchdogPollMask) == 0 &&
        watchdog.poll(now, mcu.served_total(), !mcu.idle())) {
      watchdog.raise("open-loop run", mcu, scheduler, now);
    }
    if (cfg.engine == Engine::kSkip) {
      // Fast-forward over ticks where the controller provably does nothing
      // and no injection fires. The accumulator still advances one add per
      // skipped tick (same float op sequence as unit stepping), and the loop
      // stops just before the add that would cross 1.0, at the warmup
      // boundary, at the next poll boundary, and at the controller's next
      // event — so visited ticks and RNG draws match the cycle oracle.
      if (carry + cfg.inject_per_tick < 1.0) {
        Tick limit = std::min(mcu.next_activity_tick(now), total);
        if (!measuring) limit = std::min(limit, cfg.warmup_ticks);
        if (watchdog.enabled()) limit = std::min(limit, (now | kWatchdogPollMask) + 1);
        while (now + 1 < limit && carry + cfg.inject_per_tick < 1.0) {
          carry += cfg.inject_per_tick;
          ++now;
        }
      }
    }
    ++now;
  }

  if (auditor) auditor->finalize(total);

  OpenLoopResult r;
  const double mt = static_cast<double>(cfg.measure_ticks);
  r.offered_per_tick = static_cast<double>(offered) / mt;
  r.accepted_per_tick = static_cast<double>(accepted) / mt;
  r.rejected_share =
      offered ? 1.0 - static_cast<double>(accepted) / static_cast<double>(offered) : 0.0;
  const auto& st = mcu.stats();
  const double ratio = cfg.controller.cpu_ratio;
  r.avg_read_latency_ticks = st.read_latency_cpu.mean() / ratio;
  r.p50_ticks = st.read_latency_hist.quantile(0.5) / ratio;
  r.p90_ticks = st.read_latency_hist.quantile(0.9) / ratio;
  r.p99_ticks = st.read_latency_hist.quantile(0.99) / ratio;
  r.row_hit_rate = st.row_hit_rate();
  const Tick elapsed = total - measure_start;
  // Utilization counts since construction; subtract nothing — warmup skew is
  // negligible at these lengths, and the value is informational.
  r.data_bus_utilization = dram.data_bus_utilization(total) *
                           static_cast<double>(total) / static_cast<double>(elapsed);
  return r;
}

}  // namespace memsched::sim
