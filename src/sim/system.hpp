// MultiCoreSystem: assembles cores + caches + controller + DRAM and runs the
// paper's measurement protocol.
//
// Protocol (§4.1): the run stops when the *last* core commits the target
// instruction count; cores that finish earlier keep executing (keep
// generating memory traffic) but their statistics are frozen at the target.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hierarchy.hpp"
#include "ckpt/policy.hpp"
#include "cpu/core_model.hpp"
#include "dram/dram_system.hpp"
#include "mc/controller.hpp"
#include "sched/scheduler.hpp"
#include "sim/system_config.hpp"
#include "sim/watchdog.hpp"
#include "trace/app_profile.hpp"
#include "trace/inst_stream.hpp"

namespace memsched::sim {

struct CoreResult {
  std::uint64_t committed = 0;     ///< at run end (>= target)
  CpuCycle finish_cycle = 0;       ///< CPU cycle the target was reached
  double ipc = 0.0;                ///< target / finish_cycle
  double avg_read_latency_cpu = 0.0;  ///< controller-level, CPU cycles
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  cpu::CoreRunStats core_stats{};
};

/// A point estimate from the sampled engine: the mean across measurement
/// intervals with the half-width of its 95% confidence interval (Student-t,
/// K-1 degrees of freedom over K intervals).
struct MetricEstimate {
  double mean = 0.0;
  double ci95 = 0.0;  ///< half-width; [mean - ci95, mean + ci95] covers 95%
};

/// Sampled-engine metadata attached to RunResult (enabled == false and all
/// zeros for the exact engines, and never serialized for them).
struct SamplingStats {
  bool enabled = false;
  std::uint32_t intervals_measured = 0;      ///< intervals that completed
  std::uint64_t measured_insts_per_core = 0; ///< detailed, statistics-bearing
  std::uint64_t skipped_insts_per_core = 0;  ///< functionally fast-forwarded
  MetricEstimate total_ipc;
  MetricEstimate read_latency_cpu;
  MetricEstimate row_hit_rate;
  MetricEstimate bandwidth_gbs;
  MetricEstimate bus_utilization;
  /// Per-interval max/min core-IPC ratio — the run-local fairness proxy
  /// (full unfairness needs alone-run baselines, experiment layer's job).
  MetricEstimate ipc_ratio;
  std::vector<MetricEstimate> core_ipc;
};

struct RunResult {
  std::vector<CoreResult> cores;
  Tick ticks = 0;                    ///< bus cycles simulated
  /// Ticks actually visited by the engine (== ticks under kCycle, fewer
  /// under kSkip). Engine metadata — deliberately NOT serialized, so both
  /// engines produce byte-identical JSON records.
  Tick visited_ticks = 0;
  double avg_read_latency_cpu = 0.0; ///< all cores
  double row_hit_rate = 0.0;
  double data_bus_utilization = 0.0;
  double bandwidth_gbs = 0.0;        ///< DRAM traffic over the whole run
  bool hit_tick_limit = false;
  mc::ControllerStats controller_stats{};  ///< full snapshot

  /// DRAM energy over the entire simulation (warmup included — device
  /// counters are cumulative) and the corresponding average power. Under
  /// engine=sampled these cover the detailed ticks only.
  dram::EnergyBreakdown dram_energy{};
  double dram_power_watts = 0.0;

  /// Sampled-engine estimates; sampling.enabled == false for exact engines.
  /// When enabled, the headline scalar fields above carry the estimate means
  /// and controller_stats covers only the final measurement interval.
  SamplingStats sampling{};

  [[nodiscard]] double total_ipc() const {
    double s = 0.0;
    for (const auto& c : cores) s += c.ipc;
    return s;
  }
};

class MultiCoreSystem {
 public:
  /// Builds a system running the given synthetic applications (one per
  /// core, apps.size() == config.cores).
  MultiCoreSystem(const SystemConfig& config, const std::vector<trace::AppProfile>& apps,
                  sched::Scheduler& scheduler, std::uint64_t seed);

  /// Builds a system over caller-supplied instruction streams (trace replay,
  /// custom generators). `dispatch_ipc[i]` is core i's inherent issue rate.
  MultiCoreSystem(const SystemConfig& config,
                  std::vector<std::unique_ptr<trace::InstStream>> streams,
                  const std::vector<double>& dispatch_ipc, sched::Scheduler& scheduler,
                  std::uint64_t seed);

  /// Runs the paper's measurement protocol:
  ///   1. warmup — every core commits `warmup_insts` (queues/MSHRs/LRU and
  ///      the pre-warmed caches settle); all statistics are then reset;
  ///   2. measurement — until every core commits `target_insts` more; a
  ///      core's IPC is measured over exactly its target instructions, and
  ///      early finishers keep running (§4.1).
  /// `max_ticks` bounds the total run (RunResult::hit_tick_limit reports it).
  ///
  /// `policy` (optional) enables checkpoint/restore: the loop saves periodic
  /// snapshots of the complete system state, attempts to resume from
  /// `policy.path` on entry, and parks its state + throws ckpt::CheckpointStop
  /// when the cooperative stop flag fires. A resumed run replays the exact
  /// tick stream of the uninterrupted run — the final RunResult (and any JSON
  /// serialization of it) is byte-identical. Checkpointing is rejected while
  /// the invariant auditor is attached (its shadow state is not serialized,
  /// so a resumed run could not keep verifying).
  ///
  /// A system runs once: the run starts the clock at tick 0, so a second
  /// call would re-simulate time over advanced state. It throws
  /// std::logic_error instead (exit category "internal").
  RunResult run(std::uint64_t target_insts, std::uint64_t warmup_insts = 20'000,
                Tick max_ticks = ~Tick{0} >> 1,
                const ckpt::CheckpointPolicy& policy = {});

  [[nodiscard]] const mc::MemoryController& controller() const { return *controller_; }
  [[nodiscard]] const cache::CacheHierarchy& hierarchy() const { return *hierarchy_; }
  [[nodiscard]] const dram::DramSystem& dram() const { return *dram_; }
  [[nodiscard]] const cpu::CoreModel& core(CoreId i) const { return *cores_[i]; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  /// The attached invariant auditor, or nullptr when config().audit is off.
  [[nodiscard]] verif::InvariantAuditor* auditor() { return auditor_.get(); }
  [[nodiscard]] const verif::InvariantAuditor* auditor() const { return auditor_.get(); }

  /// The attached fault injector, or nullptr when config().fault is off.
  [[nodiscard]] const mc::FaultInjector* fault_injector() const { return fault_.get(); }

 private:
  /// The kernel's state between ticks, carried across advance() calls and
  /// saved as the snapshot's "loop" section.
  struct Loop {
    Loop(std::uint32_t cores, Tick epoch_ticks)
        : next_epoch(epoch_ticks), goal(cores, 0), base_cycle(cores, 0),
          finish_cycle(cores, 0), done(cores, false), epoch_insts(cores, 0),
          epoch_bytes(cores, 0) {}
    void save_state(ckpt::Writer& w) const;
    void load_state(ckpt::Reader& r);
    template <class Self, class Io>
    static void fields(Self& self, Io& io);

    bool finished = false;  ///< run() completed (a parked finished snapshot)
    Tick t = 0;
    Tick visited = 0;
    Tick t_measure_start = 0;
    bool measuring = false;
    std::uint32_t done_count = 0;
    Tick next_epoch;
    std::vector<std::uint64_t> goal;     ///< committed count that ends the phase
    std::vector<CpuCycle> base_cycle;    ///< measurement start per core
    std::vector<CpuCycle> finish_cycle;  ///< cycle the core reached its goal
    std::vector<bool> done;
    std::vector<std::uint64_t> epoch_insts;  ///< per-core counters at the
    std::vector<std::uint64_t> epoch_bytes;  ///< previous on_epoch boundary
  };

  /// What ends an advance() call.
  enum class Until {
    kMeasured,   ///< every core done in the measurement phase (run(); the
                 ///< warmup-to-measurement switch happens on the way)
    kAllDone,    ///< every core reached its goal
    kQuiescent,  ///< nothing in flight (cores paused: no progress is owed)
  };

  /// The closed-loop kernel. Visits ticks until `until` holds: component
  /// ticks, per-core watchdog poll, system epoch feed, warmup-to-measurement
  /// switch and the skip engine's next-event jump. `before_tick()` runs at
  /// the top of every iteration (run()'s checkpoint schedule). Returns false
  /// when `max_ticks` cut it short.
  template <typename BeforeTick>
  bool advance(Loop& loop, std::vector<ProgressWatchdog>& watchdogs, Until until,
               Tick max_ticks, std::uint64_t target_insts, BeforeTick&& before_tick);

  /// Sets every core's goal `insts` past its committed count.
  void start_phase(Loop& loop, std::uint64_t insts) const;
  /// Zeroes all statistics, then start_phase(loop, insts).
  void begin_measurement(Loop& loop, std::uint64_t insts);
  [[nodiscard]] bool quiescent() const;

  /// Every snapshot section after "loop", in file order.
  void save_state(ckpt::Writer& w, const std::vector<ProgressWatchdog>& watchdogs) const;
  void load_state(ckpt::Reader& r, std::vector<ProgressWatchdog>& watchdogs);
  template <class Self, class Io, class Watchdogs>
  static void fields(Self& self, Io& io, Watchdogs& watchdogs);

  void wire(sched::Scheduler& scheduler, const std::vector<double>& dispatch_ipc,
            std::uint64_t seed);

  /// SMARTS-style interval sampling (engine == kSampled): K short detailed
  /// measurement intervals separated by functional fast-forward, each
  /// preceded by a detailed warmup and followed by a drain to quiescence.
  /// Per-metric means and 95% CIs land in RunResult::sampling.
  RunResult run_sampled(std::uint64_t target_insts, std::uint64_t warmup_insts,
                        Tick max_ticks, const ckpt::CheckpointPolicy& policy);

  /// Snapshot fingerprint for one run() invocation: config + scheduler +
  /// seed + dispatch rates + run parameters + policy context.
  [[nodiscard]] std::string run_fingerprint(std::uint64_t target_insts,
                                            std::uint64_t warmup_insts, Tick max_ticks,
                                            const std::string& context) const;

  SystemConfig config_;
  std::vector<std::unique_ptr<trace::InstStream>> streams_;
  std::unique_ptr<dram::DramSystem> dram_;
  std::unique_ptr<mc::MemoryController> controller_;
  std::unique_ptr<cache::CacheHierarchy> hierarchy_;
  std::vector<std::unique_ptr<cpu::CoreModel>> cores_;
  std::unique_ptr<verif::InvariantAuditor> auditor_;
  std::unique_ptr<mc::FaultInjector> fault_;
  sched::Scheduler* scheduler_ = nullptr;
  std::uint64_t seed_ = 0;              ///< for the snapshot fingerprint
  std::vector<double> dispatch_ipc_;    ///< ditto
  bool ran_ = false;                    ///< run() was called (it runs once)
};

}  // namespace memsched::sim
