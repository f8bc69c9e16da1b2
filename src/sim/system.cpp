#include "sim/system.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ckpt/snapshot.hpp"
#include "sim/runner.hpp"
#include "sim/watchdog.hpp"
#include "trace/generator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace memsched::sim {

MultiCoreSystem::MultiCoreSystem(const SystemConfig& config,
                                 const std::vector<trace::AppProfile>& apps,
                                 sched::Scheduler& scheduler, std::uint64_t seed)
    : config_(config) {
  MEMSCHED_ASSERT(apps.size() == config.cores, "one application per core required");
  if (const auto err = config.validate(); !err.empty())
    throw std::invalid_argument("invalid SystemConfig: " + err);

  util::Xoshiro256 seeder(seed);
  std::vector<double> dispatch;
  dispatch.reserve(apps.size());
  for (std::uint32_t c = 0; c < config.cores; ++c) {
    const trace::AppProfile& app = apps[c];
    const std::uint64_t region_need =
        app.footprint_bytes + app.hot_bytes + app.code_bytes;
    MEMSCHED_ASSERT(region_need <= config.region_bytes_per_core,
                    "application footprint exceeds per-core region");
    const Addr base = static_cast<Addr>(c) * config.region_bytes_per_core;
    streams_.push_back(
        std::make_unique<trace::SyntheticStream>(app, base, seeder.fork(c).next()));
    dispatch.push_back(app.ilp_ipc);
  }
  wire(scheduler, dispatch, seed);

  if (config.warm_caches) {
    std::vector<cache::WarmSpec> specs;
    specs.reserve(apps.size());
    for (std::uint32_t c = 0; c < config.cores; ++c) {
      const trace::AppProfile& app = apps[c];
      const Addr base = static_cast<Addr>(c) * config.region_bytes_per_core;
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
    hierarchy_->warm(specs, seed);
  }
}

MultiCoreSystem::MultiCoreSystem(const SystemConfig& config,
                                 std::vector<std::unique_ptr<trace::InstStream>> streams,
                                 const std::vector<double>& dispatch_ipc,
                                 sched::Scheduler& scheduler, std::uint64_t seed)
    : config_(config), streams_(std::move(streams)) {
  MEMSCHED_ASSERT(streams_.size() == config.cores, "one stream per core required");
  MEMSCHED_ASSERT(dispatch_ipc.size() == config.cores, "one dispatch rate per core");
  if (const auto err = config.validate(); !err.empty())
    throw std::invalid_argument("invalid SystemConfig: " + err);
  wire(scheduler, dispatch_ipc, seed);
}

void MultiCoreSystem::wire(sched::Scheduler& scheduler,
                           const std::vector<double>& dispatch_ipc, std::uint64_t seed) {
  scheduler_ = &scheduler;
  seed_ = seed;
  dispatch_ipc_ = dispatch_ipc;
  dram_ = std::make_unique<dram::DramSystem>(config_.timing, config_.org,
                                             config_.interleave, config_.bank_xor);
  controller_ = std::make_unique<mc::MemoryController>(
      *dram_, scheduler, config_.controller, config_.cores, seed ^ 0xc011ec70ULL);
  hierarchy_ = std::make_unique<cache::CacheHierarchy>(config_.hierarchy, config_.cores,
                                                       *controller_);
  if (config_.audit.enabled) {
    auditor_ =
        std::make_unique<verif::InvariantAuditor>(*dram_, *controller_, config_.audit);
  }
  if (config_.fault.enabled) {
    fault_ = std::make_unique<mc::FaultInjector>(config_.fault);
    controller_->set_fault_injector(fault_.get());
  }
  for (std::uint32_t c = 0; c < config_.cores; ++c) {
    cores_.push_back(std::make_unique<cpu::CoreModel>(c, config_.core, dispatch_ipc[c],
                                                      *streams_[c], *hierarchy_));
  }
  hierarchy_->set_fill_callback([this](std::uint64_t token, CpuCycle done_cpu) {
    const CoreId core = cpu::CoreModel::token_core(token);
    MEMSCHED_ASSERT(core < cores_.size(), "fill token for unknown core");
    cores_[core]->on_fill(token, done_cpu);
  });
}

std::string MultiCoreSystem::run_fingerprint(std::uint64_t target_insts,
                                             std::uint64_t warmup_insts, Tick max_ticks,
                                             const std::string& context) const {
  std::ostringstream os;
  os.precision(17);
  os << config_.fingerprint() << "|sched=" << scheduler_->name() << "|seed=" << seed_
     << "|ipc=";
  for (std::size_t i = 0; i < dispatch_ipc_.size(); ++i) {
    if (i) os << ',';
    os << dispatch_ipc_[i];
  }
  os << "|target=" << target_insts << "|warmup=" << warmup_insts
     << "|max_ticks=" << max_ticks << "|ctx=" << context;
  return os.str();
}

template <class Self, class Io>
void MultiCoreSystem::Loop::fields(Self& self, Io& io) {
  io(self.finished);
  io(self.t);
  io(self.visited);
  io(self.t_measure_start);
  io(self.measuring);
  io(self.done_count);
  io(self.next_epoch);
  // Per-core vectors, each stored with its length.
  const auto per_core = [&](auto& v) {
    io.count(v.size(), "loop-section core count");
    for (auto& x : v) io(x);
  };
  per_core(self.goal);
  per_core(self.base_cycle);
  per_core(self.finish_cycle);
  for (auto&& d : self.done) io(d);
  per_core(self.epoch_insts);
  per_core(self.epoch_bytes);
}

void MultiCoreSystem::Loop::save_state(ckpt::Writer& w) const { fields(*this, w); }

void MultiCoreSystem::Loop::load_state(ckpt::Reader& r) { fields(*this, r); }

template <class Self, class Io, class Watchdogs>
void MultiCoreSystem::fields(Self& self, Io& io, Watchdogs& watchdogs) {
  io.section("sched", [&] { io.nested(*self.scheduler_); });
  io.section("cores", [&] {
    for (std::uint32_t c = 0; c < self.config_.cores; ++c) {
      io.nested(*self.cores_[c]);
      io.nested(*self.streams_[c]);
    }
  });
  io.section("cache", [&] { io.nested(*self.hierarchy_); });
  io.section("mc", [&] { io.nested(*self.controller_); });
  io.section("dram", [&] { io.nested(*self.dram_); });
  if (self.fault_) io.section("fault", [&] { io.nested(*self.fault_); });
  io.section("watchdogs", [&] {
    for (auto& wd : watchdogs) io.nested(wd);
  });
}

void MultiCoreSystem::save_state(ckpt::Writer& w,
                                 const std::vector<ProgressWatchdog>& watchdogs) const {
  fields(*this, w, watchdogs);
}

void MultiCoreSystem::load_state(ckpt::Reader& r, std::vector<ProgressWatchdog>& watchdogs) {
  fields(*this, r, watchdogs);
}

void MultiCoreSystem::start_phase(Loop& loop, std::uint64_t insts) const {
  for (std::uint32_t c = 0; c < config_.cores; ++c) {
    loop.goal[c] = cores_[c]->committed() + insts;
    loop.done[c] = false;
  }
  loop.done_count = 0;
}

void MultiCoreSystem::begin_measurement(Loop& loop, std::uint64_t insts) {
  loop.measuring = true;
  controller_->reset_stats();
  hierarchy_->reset_stats();
  for (std::uint32_t c = 0; c < config_.cores; ++c) {
    cores_[c]->reset_stats();
    loop.base_cycle[c] = cores_[c]->cycle();
    // Epoch traffic counters restart with the stats reset.
    loop.epoch_insts[c] = cores_[c]->committed();
    loop.epoch_bytes[c] = 0;
  }
  start_phase(loop, insts);
}

bool MultiCoreSystem::quiescent() const {
  if (!hierarchy_->idle()) return false;
  for (const auto& core : cores_)
    if (!core->quiescent()) return false;
  return true;
}

template <typename BeforeTick>
bool MultiCoreSystem::advance(Loop& loop, std::vector<ProgressWatchdog>& watchdogs,
                              Until until, Tick max_ticks, std::uint64_t target_insts,
                              BeforeTick&& before_tick) {
  const std::uint32_t n = config_.cores;
  Tick& t = loop.t;
  for (;;) {
    if (until == Until::kAllDone && loop.done_count == n) return true;
    if (until == Until::kQuiescent && quiescent()) return true;
    if (t >= max_ticks) return false;
    before_tick();
    ++loop.visited;
    hierarchy_->tick(t);
    controller_->tick(t);
    const CpuCycle window_end = (t + 1) * config_.cpu_ratio;
    for (std::uint32_t c = 0; c < n; ++c) {
      cores_[c]->step_to(window_end);
      if (!loop.done[c] && cores_[c]->committed() >= loop.goal[c]) {
        loop.done[c] = true;
        loop.finish_cycle[c] = cores_[c]->cycle();
        ++loop.done_count;
      }
    }
    if ((t & kWatchdogPollMask) == 0 && watchdogs[0].enabled()) {
      for (std::uint32_t c = 0; c < n; ++c) {
        // Early finishers keep running but owe no further progress, and
        // paused (draining) cores owe none at all; their lane resets
        // instead of arming.
        if (watchdogs[c].poll(t, cores_[c]->committed(),
                              until != Until::kQuiescent && !loop.done[c])) {
          const char* phase = config_.engine == Engine::kSampled ? "sampled run"
                              : loop.measuring ? "closed-loop run, measurement phase"
                                               : "closed-loop run, warmup phase";
          watchdogs[c].raise("core " + std::to_string(c) + " (" + phase + ")",
                             *controller_, *scheduler_, t);
        }
      }
    }
    if (t >= loop.next_epoch) {
      loop.next_epoch += config_.epoch_ticks;
      if (auditor_) auditor_->cross_check(t);
      const auto& cs = controller_->stats();
      for (std::uint32_t c = 0; c < n; ++c) {
        const std::uint64_t insts = cores_[c]->committed();
        const std::uint64_t bytes = (cs.core_reads[c] + cs.core_writes[c]) * kLineBytes;
        scheduler_->on_epoch(c, static_cast<double>(insts - loop.epoch_insts[c]),
                             static_cast<double>(bytes - loop.epoch_bytes[c]));
        loop.epoch_insts[c] = insts;
        loop.epoch_bytes[c] = bytes;
      }
    }
    if (until == Until::kMeasured && loop.done_count == n) {
      if (loop.measuring) {
        ++t;
        return true;
      }
      begin_measurement(loop, target_insts);
      loop.t_measure_start = t + 1;
    }
    if (config_.engine == Engine::kCycle) {
      ++t;
      continue;
    }
    // Next-event fast-forward: every tick in (t, jump) is a provable no-op
    // for the hierarchy, the controller and every core, and the jump never
    // crosses a watchdog poll or epoch boundary — so visited ticks, and
    // therefore all statistics and RNG draws, match the cycle oracle.
    // Cheapest sources first, and stop as soon as t + 1 is inevitable — the
    // jump can never land before t + 1, so further scanning buys nothing.
    Tick jump = kNeverTick;
    for (std::uint32_t c = 0; c < n; ++c) {
      const CpuCycle wake = cores_[c]->next_activity_cycle();
      if (wake != cpu::CoreModel::kIdle)
        jump = std::min(jump, std::max(wake / config_.cpu_ratio, t + 1));
    }
    if (jump > t + 1) jump = std::min(jump, hierarchy_->next_activity_tick(t));
    if (jump > t + 1) jump = std::min(jump, controller_->next_activity_tick(t));
    jump = std::min(jump, loop.next_epoch);
    if (watchdogs[0].enabled())
      jump = std::min(jump, (t | kWatchdogPollMask) + 1);  // next poll boundary
    t = std::min(std::max(jump, t + 1), max_ticks);
  }
}

RunResult MultiCoreSystem::run(std::uint64_t target_insts, std::uint64_t warmup_insts,
                               Tick max_ticks, const ckpt::CheckpointPolicy& policy) {
  MEMSCHED_ASSERT(target_insts > 0, "target instruction count must be positive");
  if (ran_) {
    throw std::logic_error(
        "MultiCoreSystem::run called twice: a run starts at tick 0, so a system "
        "simulates one run (build a fresh system for the next)");
  }
  ran_ = true;
  if (config_.engine == Engine::kSampled)
    return run_sampled(target_insts, warmup_insts, max_ticks, policy);
  const std::uint32_t n = config_.cores;
  if (policy.enabled() && auditor_) {
    throw std::invalid_argument(
        "checkpointing requires audit off: the auditor's shadow state is not "
        "serialized, so a resumed run could not keep verifying (disable one)");
  }

  Loop loop(n, config_.epoch_ticks);
  loop.measuring = warmup_insts == 0;
  start_phase(loop, loop.measuring ? target_insts : warmup_insts);

  // One forward-progress watchdog per core: a single starved core must be
  // caught even while its neighbours keep committing.
  std::vector<ProgressWatchdog> watchdogs(n, ProgressWatchdog(config_.progress_window_ticks));

  // --- checkpoint plumbing -------------------------------------------------
  // A snapshot is taken at the top of a loop iteration, before tick t is
  // processed: every component is self-consistent and the resumed run
  // re-enters the loop at the same t, replaying the exact tick stream (and
  // RNG draws) of the uninterrupted run. The post-loop snapshot sets
  // `finished`; resuming it skips the loop and recomputes the RunResult from
  // the restored state, which is deterministic — so a killed-and-resumed run
  // produces a byte-identical report.
  const std::string fp = policy.enabled()
                             ? run_fingerprint(target_insts, warmup_insts, max_ticks,
                                               policy.context)
                             : std::string{};

  auto save_snapshot = [&] {
    ckpt::Writer w;
    w.begin_section("loop");
    loop.save_state(w);
    save_state(w, watchdogs);
    w.save(policy.path, fp);
  };

  if (policy.enabled() && policy.resume &&
      std::ifstream(policy.path, std::ios::binary).good()) {
    if (policy.resume_info) *policy.resume_info = {};
    bool mutated = false;  // components touched: a failure now is NOT recoverable
    try {
      ckpt::Reader r(policy.path, fp);
      Loop restored = loop;
      r.open_section("loop");
      restored.load_state(r);
      r.close_section();
      mutated = true;
      load_state(r, watchdogs);
      loop = std::move(restored);
      if (policy.resume_info) {
        policy.resume_info->attempted = true;
        policy.resume_info->resumed = true;
      }
    } catch (const ckpt::SnapshotError& e) {
      if (mutated) throw;  // half-restored state cannot fall back cleanly
      if (policy.resume_info) {
        policy.resume_info->attempted = true;
        policy.resume_info->resumed = false;
        policy.resume_info->error = e.what();
      }
    }
  }

  Tick next_ckpt = kNeverTick;
  if (policy.enabled() && policy.interval_ticks != 0) {
    next_ckpt = (loop.t / policy.interval_ticks + 1) * policy.interval_ticks;
  }
  // A run restored past its warm-up has its measurement snapshot already.
  bool measurement_saved =
      policy.milestone != ckpt::Milestone::kMeasurementStart || loop.measuring;
  auto checkpoint = [&] {
    if (!policy.enabled()) return;
    const Tick t = loop.t;
    if ((policy.stop != nullptr && *policy.stop != 0) ||
        (policy.stop_at_tick != 0 && t >= policy.stop_at_tick)) {
      if (policy.save_on_stop) save_snapshot();
      throw ckpt::CheckpointStop(policy.path);
    }
    if (t >= next_ckpt) {
      save_snapshot();
      next_ckpt = (t / policy.interval_ticks + 1) * policy.interval_ticks;
    } else if (!measurement_saved && loop.measuring) {
      save_snapshot();
    }
    measurement_saved = measurement_saved || loop.measuring;
  };

  if (!loop.finished) {
    advance(loop, watchdogs, Until::kMeasured, max_ticks, target_insts, checkpoint);
    if (policy.enabled() && policy.milestone == ckpt::Milestone::kFinish) {
      // Park the completed state: a later invocation (e.g. an orchestrator
      // retry of an already-finished point) resumes it and recomputes the
      // identical result without re-simulating.
      loop.finished = true;
      save_snapshot();
    }
  }

  const Tick t = loop.t;
  if (auditor_) auditor_->finalize(t);

  RunResult result;
  result.ticks = t;
  result.visited_ticks = loop.visited;
  result.hit_tick_limit = loop.done_count < n || !loop.measuring;
  result.controller_stats = controller_->stats();
  result.avg_read_latency_cpu = result.controller_stats.read_latency_cpu.mean();
  result.row_hit_rate = result.controller_stats.row_hit_rate();
  result.data_bus_utilization = dram_->data_bus_utilization(t);

  std::uint64_t total_bytes = 0;
  result.cores.resize(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    CoreResult& cr = result.cores[c];
    cr.committed = cores_[c]->committed();
    const CpuCycle end_cycle =
        loop.done[c] && loop.measuring ? loop.finish_cycle[c] : cores_[c]->cycle();
    const CpuCycle cycles = end_cycle > loop.base_cycle[c] ? end_cycle - loop.base_cycle[c] : 1;
    cr.finish_cycle = end_cycle;
    cr.ipc = static_cast<double>(target_insts) / static_cast<double>(cycles);
    cr.avg_read_latency_cpu = result.controller_stats.core_read_latency_cpu[c].mean();
    cr.dram_reads = result.controller_stats.core_reads[c];
    cr.dram_writes = result.controller_stats.core_writes[c];
    cr.core_stats = cores_[c]->stats();
    total_bytes += (cr.dram_reads + cr.dram_writes) * kLineBytes;
  }
  const Tick measure_ticks = t > loop.t_measure_start ? t - loop.t_measure_start : 1;
  const double seconds = static_cast<double>(measure_ticks) / config_.bus_hz();
  result.bandwidth_gbs = static_cast<double>(total_bytes) / seconds / 1e9;

  const dram::PowerModel power(config_.power, config_.timing, config_.bus_hz());
  result.dram_energy = power.energy_of(*dram_, t);
  result.dram_power_watts =
      result.dram_energy.average_power(static_cast<double>(t) / config_.bus_hz());
  return result;
}

namespace {

/// Two-sided 97.5% Student-t quantile (=> 95% CI half-width multiplier) for
/// `df` degrees of freedom; the normal 1.96 beyond the tabulated range.
double student_t_975(std::size_t df) {
  static constexpr double kT[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  return df <= 30 ? kT[df - 1] : 1.96;
}

MetricEstimate estimate(const std::vector<double>& samples) {
  MetricEstimate e;
  const std::size_t k = samples.size();
  if (k == 0) return e;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  e.mean = sum / static_cast<double>(k);
  if (k < 2) return e;
  double ss = 0.0;
  for (const double s : samples) ss += (s - e.mean) * (s - e.mean);
  const double var = ss / static_cast<double>(k - 1);
  e.ci95 = student_t_975(k - 1) * std::sqrt(var / static_cast<double>(k));
  return e;
}

}  // namespace

RunResult MultiCoreSystem::run_sampled(std::uint64_t target_insts,
                                       std::uint64_t warmup_insts, Tick max_ticks,
                                       const ckpt::CheckpointPolicy& policy) {
  if (policy.enabled()) {
    throw std::invalid_argument(
        "engine=sampled does not support checkpointing: the sampler's interval "
        "position is not part of the snapshot format (use engine=skip)");
  }
  const std::uint32_t n = config_.cores;
  const SamplingConfig& sc = config_.sampling;
  const std::uint32_t intervals = sc.intervals;
  const std::uint64_t warm = sc.warmup_insts;
  const std::uint64_t meas = sc.interval_insts;
  // Each interval owns an equal share of the instruction budget; whatever
  // its detailed warmup+measurement does not cover is functionally
  // fast-forwarded after the drain. A budget smaller than the detailed
  // portion degenerates gracefully (ff == 0: detailed-only, still sampled).
  const std::uint64_t stride = std::max<std::uint64_t>(target_insts / intervals, warm + meas);
  const std::uint64_t ff = stride - (warm + meas);

  Loop loop(n, config_.epoch_ticks);
  std::vector<ProgressWatchdog> watchdogs(n, ProgressWatchdog(config_.progress_window_ticks));
  auto advance_until = [&](Until until) {
    return advance(loop, watchdogs, until, max_ticks, 0, [] {});
  };

  // Cumulative data-bus busy ticks, recoverable from the utilization ratio.
  auto busy_ticks = [&]() -> double {
    const Tick t = loop.t;
    return t == 0 ? 0.0 : dram_->data_bus_utilization(t) * static_cast<double>(t);
  };

  // Pause the cores and tick until nothing is in flight anywhere the
  // functional fast-forward could race: outstanding loads, store-queue and
  // frontend fills, L2 MSHRs and queued writebacks. Writes already inside
  // the memory controller are ordinary pre-gap traffic and may stay queued;
  // the next interval's detailed warmup absorbs them.
  auto drain = [&]() -> bool {
    for (auto& core : cores_) core->set_paused(true);
    const bool ok = advance_until(Until::kQuiescent);
    for (auto& core : cores_) core->set_paused(false);
    return ok;
  };

  // Functional fast-forward of every core by `insts`. The private halves
  // (each core's stream and its own L1s) run concurrently; the L2 touches
  // they log then replay on this thread in core order. No L1 outcome reads
  // L2 state, so this is byte-identical to advancing the cores one by one.
  auto fast_forward = [&](std::uint64_t insts) {
    parallel_for(n, default_thread_count(),
                 [&](std::size_t c) { cores_[c]->functional_advance_private(insts); });
    for (auto& core : cores_) core->functional_replay_shared();
  };

  // The caller-level warmup is purely functional: it exists to touch caches
  // at scale, and each interval re-warms queue/pipeline state in detail.
  if (warmup_insts > 0) fast_forward(warmup_insts);

  std::vector<std::vector<double>> core_ipc_samples(n);
  std::vector<double> ipc_samples, lat_samples, rhr_samples, bw_samples,
      util_samples, ratio_samples;
  std::uint64_t measured_insts = 0;
  std::uint64_t skipped_insts = warmup_insts;
  bool hit_limit = false;

  for (std::uint32_t k = 0; k < intervals; ++k) {
    start_phase(loop, warm);
    if (!advance_until(Until::kAllDone)) {
      hit_limit = true;
      break;
    }
    begin_measurement(loop, meas);
    const Tick t_start = loop.t;
    const double busy_start = busy_ticks();
    if (!advance_until(Until::kAllDone)) {
      hit_limit = true;
      break;
    }
    double ipc_sum = 0.0, ipc_min = 0.0, ipc_max = 0.0;
    for (std::uint32_t c = 0; c < n; ++c) {
      const CpuCycle cycles = loop.finish_cycle[c] > loop.base_cycle[c]
                                  ? loop.finish_cycle[c] - loop.base_cycle[c]
                                  : 1;
      const double ipc = static_cast<double>(meas) / static_cast<double>(cycles);
      core_ipc_samples[c].push_back(ipc);
      ipc_sum += ipc;
      ipc_min = c == 0 ? ipc : std::min(ipc_min, ipc);
      ipc_max = c == 0 ? ipc : std::max(ipc_max, ipc);
    }
    ipc_samples.push_back(ipc_sum);
    ratio_samples.push_back(ipc_min > 0.0 ? ipc_max / ipc_min : 1.0);
    const auto& cs = controller_->stats();
    lat_samples.push_back(cs.read_latency_cpu.mean());
    rhr_samples.push_back(cs.row_hit_rate());
    std::uint64_t bytes = 0;
    for (std::uint32_t c = 0; c < n; ++c)
      bytes += (cs.core_reads[c] + cs.core_writes[c]) * kLineBytes;
    const Tick dt = loop.t > t_start ? loop.t - t_start : 1;
    bw_samples.push_back(static_cast<double>(bytes) /
                         (static_cast<double>(dt) / config_.bus_hz()) / 1e9);
    util_samples.push_back((busy_ticks() - busy_start) / static_cast<double>(dt));
    measured_insts += meas;

    if (!drain()) {
      hit_limit = true;
      break;
    }
    if (k + 1 < intervals && ff > 0) {
      fast_forward(ff);
      skipped_insts += ff;
    }
  }

  const Tick t = loop.t;
  if (auditor_) auditor_->finalize(t);

  RunResult result;
  result.ticks = t;             // detailed (simulated) ticks only
  result.visited_ticks = loop.visited;
  result.hit_tick_limit = hit_limit;
  result.controller_stats = controller_->stats();  // final interval's window

  result.sampling.enabled = true;
  result.sampling.intervals_measured = static_cast<std::uint32_t>(lat_samples.size());
  result.sampling.measured_insts_per_core = measured_insts;
  result.sampling.skipped_insts_per_core = skipped_insts;
  result.sampling.total_ipc = estimate(ipc_samples);
  result.sampling.read_latency_cpu = estimate(lat_samples);
  result.sampling.row_hit_rate = estimate(rhr_samples);
  result.sampling.bandwidth_gbs = estimate(bw_samples);
  result.sampling.bus_utilization = estimate(util_samples);
  result.sampling.ipc_ratio = estimate(ratio_samples);
  result.sampling.core_ipc.resize(n);

  result.avg_read_latency_cpu = result.sampling.read_latency_cpu.mean;
  result.row_hit_rate = result.sampling.row_hit_rate.mean;
  result.data_bus_utilization = result.sampling.bus_utilization.mean;
  result.bandwidth_gbs = result.sampling.bandwidth_gbs.mean;

  result.cores.resize(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    result.sampling.core_ipc[c] = estimate(core_ipc_samples[c]);
    CoreResult& cr = result.cores[c];
    cr.committed = cores_[c]->committed();
    cr.finish_cycle = cores_[c]->cycle();
    cr.ipc = result.sampling.core_ipc[c].mean;
    cr.avg_read_latency_cpu = result.controller_stats.core_read_latency_cpu[c].mean();
    cr.dram_reads = result.controller_stats.core_reads[c];
    cr.dram_writes = result.controller_stats.core_writes[c];
    cr.core_stats = cores_[c]->stats();
  }

  const dram::PowerModel power(config_.power, config_.timing, config_.bus_hz());
  result.dram_energy = power.energy_of(*dram_, t);
  result.dram_power_watts = result.dram_energy.average_power(
      std::max<double>(static_cast<double>(t), 1.0) / config_.bus_hz());
  return result;
}

}  // namespace memsched::sim
