#include "rig.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "cache/hierarchy.hpp"
#include "cpu/core_model.hpp"
#include "dram/dram_system.hpp"
#include "sched/policies.hpp"
#include "sim/watchdog.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"
#include "util/wallclock.hpp"

namespace perfbench {

using namespace memsched;

namespace {

constexpr Tick kWatchdogPollMask = 1023;

template <typename F>
void in_sched_span(Tracer* tracer, F&& f) {
  if (tracer == nullptr) {
    f();
    return;
  }
  const Tracer::Scope s(*tracer, Layer::kSched);
  f();
}

std::vector<std::unique_ptr<trace::SyntheticStream>> make_streams(
    const sim::SystemConfig& cfg, const std::vector<trace::AppProfile>& apps,
    std::uint64_t seed) {
  util::Xoshiro256 seeder(seed);
  std::vector<std::unique_ptr<trace::SyntheticStream>> streams;
  for (std::uint32_t c = 0; c < cfg.cores; ++c) {
    const Addr base = static_cast<Addr>(c) * cfg.region_bytes_per_core;
    streams.push_back(
        std::make_unique<trace::SyntheticStream>(apps[c], base, seeder.fork(c).next()));
  }
  return streams;
}

/// The closed-loop system as MultiCoreSystem's application constructor
/// builds it, from public constructors only. Warming happens here too: the
/// stream-taking MultiCoreSystem constructor skips it, so a rig built that
/// way would quietly simulate cold caches.
struct Assembly {
  Assembly(const sim::SystemConfig& cfg, const std::vector<trace::AppProfile>& apps,
           sched::Scheduler& scheduler, std::uint64_t seed)
      : streams(make_streams(cfg, apps, seed)),
        dram(cfg.timing, cfg.org, cfg.interleave, cfg.bank_xor),
        controller(dram, scheduler, cfg.controller, cfg.cores, seed ^ 0xc011ec70ULL),
        hierarchy(cfg.hierarchy, cfg.cores, controller) {
    if (apps.size() != cfg.cores) throw std::invalid_argument("rig: one app per core");
    if (cfg.audit.enabled || cfg.fault.enabled)
      throw std::invalid_argument("rig: audit and fault injection must be off");
    for (std::uint32_t c = 0; c < cfg.cores; ++c) {
      cores.push_back(std::make_unique<cpu::CoreModel>(c, cfg.core, apps[c].ilp_ipc,
                                                       *streams[c], hierarchy));
    }
    if (!cfg.warm_caches) return;
    std::vector<cache::WarmSpec> specs;
    for (std::uint32_t c = 0; c < cfg.cores; ++c) {
      const trace::AppProfile& app = apps[c];
      const Addr base = static_cast<Addr>(c) * cfg.region_bytes_per_core;
      cache::WarmSpec ws;
      ws.footprint_base = base;
      ws.footprint_bytes = app.footprint_bytes;
      ws.dirty_share = app.dirty_fresh_share;
      ws.hot_base = base + app.footprint_bytes;
      ws.hot_bytes = app.hot_bytes;
      ws.hot_dirty_share = app.store_share;
      ws.code_base = ws.hot_base + app.hot_bytes;
      ws.code_bytes = app.code_bytes;
      specs.push_back(ws);
    }
    hierarchy.warm(specs, seed);
  }

  std::vector<std::unique_ptr<trace::SyntheticStream>> streams;
  dram::DramSystem dram;
  mc::MemoryController controller;
  cache::CacheHierarchy hierarchy;
  std::vector<std::unique_ptr<cpu::CoreModel>> cores;
};

}  // namespace

void TracedScheduler::prepare(const sched::QueueSnapshot& snap) {
  ++rounds_;
  in_sched_span(tracer_, [&] { inner_.prepare(snap); });
}

double TracedScheduler::core_priority(CoreId core) const {
  ++priority_calls_;
  double p = 0.0;
  in_sched_span(tracer_, [&] { p = inner_.core_priority(core); });
  return p;
}

void TracedScheduler::on_served(const mc::Request& req) {
  ++served_;
  in_sched_span(tracer_, [&] { inner_.on_served(req); });
}

void TracedScheduler::on_epoch(CoreId core, double committed_insts, double dram_bytes) {
  ++epoch_calls_;
  in_sched_span(tracer_, [&] { inner_.on_epoch(core, committed_insts, dram_bytes); });
}

void TracedScheduler::on_epoch(Tick boundary, const sched::QueueSnapshot& snap) {
  ++epoch_calls_;
  in_sched_span(tracer_, [&] { inner_.on_epoch(boundary, snap); });
}

ClosedRigResult run_closed_rig(const sim::SystemConfig& cfg,
                               const std::vector<trace::AppProfile>& apps,
                               sched::Scheduler& scheduler, std::uint64_t seed,
                               std::uint64_t target_insts, std::uint64_t warmup_insts,
                               Tracer& tracer) {
  if (cfg.engine != sim::Engine::kSkip) throw std::invalid_argument("rig: skip engine only");
  Assembly sys(cfg, apps, scheduler, seed);
  auto& cores = sys.cores;
  sys.hierarchy.set_fill_callback([&](std::uint64_t token, CpuCycle done_cpu) {
    const Tracer::Scope s(tracer, Layer::kCpuFill);
    cores[cpu::CoreModel::token_core(token)]->on_fill(token, done_cpu);
  });

  // The loop below mirrors MultiCoreSystem::run for Engine::kSkip without a
  // checkpoint policy: same step order, epoch feed, watchdog polls and jump
  // clamps, so visited ticks and every RNG draw match.
  const std::uint32_t n = cfg.cores;
  std::vector<std::uint64_t> goal(n, 0);
  std::vector<bool> done(n, false);
  std::uint32_t done_count = 0;
  std::vector<std::uint64_t> epoch_insts(n, 0);
  std::vector<std::uint64_t> epoch_bytes(n, 0);
  Tick next_epoch = cfg.epoch_ticks;
  bool measuring = warmup_insts == 0;
  for (std::uint32_t c = 0; c < n; ++c)
    goal[c] = cores[c]->committed() + (measuring ? target_insts : warmup_insts);
  std::vector<sim::ProgressWatchdog> watchdogs(n,
                                               sim::ProgressWatchdog(cfg.progress_window_ticks));
  const Tick max_ticks = ~Tick{0} >> 1;
  Tick t = 0;
  Tick visited = 0;

  const auto t0 = util::monotonic_now();
  while (t < max_ticks) {
    const Tracer::Scope visit(tracer, Layer::kSimLoop);
    ++visited;
    {
      const Tracer::Scope s(tracer, Layer::kCache);
      sys.hierarchy.tick(t);
    }
    {
      const Tracer::Scope s(tracer, Layer::kMc);
      sys.controller.tick(t);
    }
    const CpuCycle window_end = (t + 1) * cfg.cpu_ratio;
    for (std::uint32_t c = 0; c < n; ++c) {
      {
        const Tracer::Scope s(tracer, Layer::kCpu);
        cores[c]->step_to(window_end);
      }
      if (!done[c] && cores[c]->committed() >= goal[c]) {
        done[c] = true;
        ++done_count;
      }
    }
    if ((t & kWatchdogPollMask) == 0 && watchdogs[0].enabled()) {
      for (std::uint32_t c = 0; c < n; ++c) {
        if (watchdogs[c].poll(t, cores[c]->committed(), !done[c]))
          watchdogs[c].raise("rig core " + std::to_string(c), sys.controller, scheduler, t);
      }
    }
    if (t >= next_epoch) {
      next_epoch += cfg.epoch_ticks;
      const auto& cs = sys.controller.stats();
      for (std::uint32_t c = 0; c < n; ++c) {
        const std::uint64_t insts = cores[c]->committed();
        const std::uint64_t bytes = (cs.core_reads[c] + cs.core_writes[c]) * kLineBytes;
        scheduler.on_epoch(c, static_cast<double>(insts - epoch_insts[c]),
                           static_cast<double>(bytes - epoch_bytes[c]));
        epoch_insts[c] = insts;
        epoch_bytes[c] = bytes;
      }
    }
    if (done_count == n) {
      if (measuring) {
        ++t;
        break;
      }
      measuring = true;
      sys.controller.reset_stats();
      sys.hierarchy.reset_stats();
      for (std::uint32_t c = 0; c < n; ++c) {
        cores[c]->reset_stats();
        goal[c] = cores[c]->committed() + target_insts;
        done[c] = false;
        epoch_insts[c] = cores[c]->committed();
        epoch_bytes[c] = 0;
      }
      done_count = 0;
    }
    Tick jump = kNeverTick;
    {
      const Tracer::Scope s(tracer, Layer::kSimScan);
      for (std::uint32_t c = 0; c < n; ++c) {
        const CpuCycle wake = cores[c]->next_activity_cycle();
        if (wake != cpu::CoreModel::kIdle)
          jump = std::min(jump, std::max(wake / cfg.cpu_ratio, t + 1));
      }
      if (jump > t + 1) jump = std::min(jump, sys.hierarchy.next_activity_tick(t));
      if (jump > t + 1) jump = std::min(jump, sys.controller.next_activity_tick(t));
    }
    jump = std::min(jump, next_epoch);
    if (watchdogs[0].enabled()) jump = std::min(jump, (t | kWatchdogPollMask) + 1);
    t = std::min(std::max(jump, t + 1), max_ticks);
  }

  ClosedRigResult r;
  r.wall_s = util::seconds_between(t0, util::monotonic_now());
  r.ticks = t;
  r.visited = visited;
  for (const auto& core : cores) {
    r.committed.push_back(core->committed());
    r.retry_cycles += core->stats().stall_backpressure;
  }
  r.controller_stats = sys.controller.stats();
  r.l2_miss_ratio = sys.hierarchy.l2().stats().miss_rate();
  r.bus_utilization = sys.dram.data_bus_utilization(t);
  return r;
}

OpenRigResult run_open_rig(const sim::OpenLoopConfig& cfg, sched::Scheduler& scheduler,
                           Tracer& tracer) {
  if (cfg.audit.enabled || cfg.fault.enabled || cfg.engine != sim::Engine::kSkip)
    throw std::invalid_argument("open rig: skip engine with audit and faults off only");
  // Mirrors sim::run_open_loop (skip engine, no checkpoint policy).
  dram::DramSystem dram(cfg.timing, cfg.org, cfg.interleave);
  scheduler.reset();
  mc::MemoryController mcu(dram, scheduler, cfg.controller, cfg.cores, cfg.seed);
  sim::ProgressWatchdog watchdog(cfg.progress_window_ticks);

  util::Xoshiro256 rng(cfg.seed ^ 0x0be9100bULL);
  std::vector<std::uint64_t> cursor(cfg.cores);
  std::vector<std::uint32_t> run_left(cfg.cores, 0);
  for (auto& c : cursor) c = rng.below(cfg.footprint_lines);

  std::uint64_t offered = 0, accepted = 0;
  double carry = 0.0;
  bool measuring = false;
  Tick measure_start = 0;
  const Tick total = cfg.warmup_ticks + cfg.measure_ticks;
  Tick now = 0;
  Tick visited = 0;

  const auto t0 = util::monotonic_now();
  while (now < total) {
    const Tracer::Scope visit(tracer, Layer::kSimLoop);
    ++visited;
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
        run_left[core] = 1 + util::geometric_run(rng, 1.0 - 1.0 / cfg.seq_run_lines, 256);
      }
      --run_left[core];
      const Addr addr =
          (static_cast<Addr>(core) * cfg.footprint_lines + cursor[core]) * kLineBytes;
      cursor[core] = (cursor[core] + 1) % cfg.footprint_lines;
      const Tracer::Scope s(tracer, Layer::kMc);
      const bool ok = rng.chance(cfg.write_share) ? mcu.enqueue_write(core, addr, now)
                                                  : mcu.enqueue_read(core, addr, now);
      accepted += ok;
    }
    {
      const Tracer::Scope s(tracer, Layer::kMc);
      mcu.tick(now);
    }
    if ((now & kWatchdogPollMask) == 0 && watchdog.poll(now, mcu.served_total(), !mcu.idle()))
      watchdog.raise("open-loop rig", mcu, scheduler, now);
    if (carry + cfg.inject_per_tick < 1.0) {
      Tick limit = 0;
      {
        const Tracer::Scope s(tracer, Layer::kSimScan);
        limit = std::min(mcu.next_activity_tick(now), total);
      }
      if (!measuring) limit = std::min(limit, cfg.warmup_ticks);
      if (watchdog.enabled()) limit = std::min(limit, (now | kWatchdogPollMask) + 1);
      while (now + 1 < limit && carry + cfg.inject_per_tick < 1.0) {
        carry += cfg.inject_per_tick;
        ++now;
      }
    }
    ++now;
  }

  OpenRigResult out;
  out.wall_s = util::seconds_between(t0, util::monotonic_now());
  out.ticks = total;
  out.visited = visited;
  sim::OpenLoopResult& r = out.result;
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
  r.data_bus_utilization = dram.data_bus_utilization(total) * static_cast<double>(total) /
                           static_cast<double>(elapsed);
  return out;
}

ReplayCost replay_streams(const sim::SystemConfig& cfg,
                          const std::vector<trace::AppProfile>& apps, std::uint64_t seed,
                          std::uint64_t insts_per_core) {
  ReplayCost out;
  const double total = static_cast<double>(insts_per_core) * cfg.cores;
  {
    auto streams = make_streams(cfg, apps, seed);
    const auto t0 = util::monotonic_now();
    for (auto& s : streams) {
      trace::InstStream& stream = *s;
      for (std::uint64_t i = 0; i < insts_per_core; ++i) out.sink ^= stream.next().addr;
    }
    out.next_ns_per_inst = util::seconds_between(t0, util::monotonic_now()) * 1e9 / total;
  }
  {
    auto streams = make_streams(cfg, apps, seed);
    const auto t0 = util::monotonic_now();
    for (auto& s : streams) {
      trace::InstStream& stream = *s;
      trace::InstRecord rec;
      for (std::uint64_t left = insts_per_core; left > 0;) {
        left -= stream.next_ref(left, rec);
        out.sink ^= rec.addr;
      }
    }
    out.next_ref_ns_per_inst = util::seconds_between(t0, util::monotonic_now()) * 1e9 / total;
  }
  {
    sched::HitFirstReadFirstScheduler unused_by_ff;
    Assembly sys(cfg, apps, unused_by_ff, seed);
    const auto t0 = util::monotonic_now();
    for (auto& core : sys.cores) core->functional_advance(insts_per_core);
    out.functional_ns_per_inst =
        util::seconds_between(t0, util::monotonic_now()) * 1e9 / total;
    for (auto& core : sys.cores) out.sink ^= core->committed();
  }
  return out;
}

std::string open_loop_record(const sim::OpenLoopResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g",
                r.offered_per_tick, r.accepted_per_tick, r.rejected_share,
                r.avg_read_latency_ticks, r.p50_ticks, r.p90_ticks, r.p99_ticks,
                r.row_hit_rate, r.data_bus_utilization);
  return buf;
}

std::string controller_stats_record(const mc::ControllerStats& s) {
  std::string out;
  char buf[128];
  const auto num = [&](std::uint64_t v) {
    out += std::to_string(v);
    out += ' ';
  };
  const auto stat = [&](const util::RunningStat& r) {
    std::snprintf(buf, sizeof buf, "%llu:%.17g:%.17g:%.17g ",
                  static_cast<unsigned long long>(r.count()), r.sum(), r.min(), r.max());
    out += buf;
  };
  for (const std::uint64_t v : {s.reads_served, s.writes_served, s.prefetch_reads,
                                s.read_forwards, s.write_merges, s.row_hits, s.row_closed,
                                s.row_conflicts, s.drain_entries, s.sched_rounds})
    num(v);
  stat(s.read_latency_cpu);
  for (std::size_t i = 0; i < s.read_latency_hist.bucket_count(); ++i)
    num(s.read_latency_hist.bucket(i));
  num(s.read_latency_hist.overflow());
  for (const util::RunningStat& r : s.core_read_latency_cpu) stat(r);
  for (const std::uint64_t v : s.core_reads) num(v);
  for (const std::uint64_t v : s.core_writes) num(v);
  return out;
}

}  // namespace perfbench
