// Workload and case definitions of the memsched benchmark.
//
// Every workload derives its evaluation and profiling seeds from the
// benchmark's --seed, through one of kSeedSlots slots, so that the digests
// of exact results and the exact references of sampled cases can be checked
// in for every seed the benchmark can be given. Every seed but kHeldOutSeed
// maps to one of the first kHeldOutSlot slots; the last slot belongs to the
// held-out seed alone, so its inputs are never seen while tuning.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler_factory.hpp"
#include "harness/grid.hpp"
#include "sim/experiment.hpp"
#include "sim/open_loop.hpp"

namespace perfbench {

inline constexpr std::uint32_t kSeedSlots = 9;
inline constexpr std::uint32_t kHeldOutSlot = kSeedSlots - 1;
inline constexpr std::uint64_t kHeldOutSeed = 1'000'003;

struct Seeds {
  std::uint32_t slot = 0;
  std::uint64_t eval = 0;     ///< evaluation slice seed (systems, open loop, sweep)
  std::uint64_t profile = 0;  ///< ME profiling slice seed
};
[[nodiscard]] Seeds seeds_for_slot(std::uint32_t slot);
/// kHeldOutSeed -> kHeldOutSlot; any other seed -> seed mod kHeldOutSlot.
[[nodiscard]] Seeds derive_seeds(std::uint64_t seed);

enum class Workload { kClosedExact, kOpenLoop, kSampled, kSweep };
[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);
[[nodiscard]] const std::vector<Workload>& all_workloads();

/// One closed-loop run to completion: `mix` under `scheme`, warmup then
/// `target_insts` per core, on a fresh system.
struct ClosedCase {
  std::string mix;
  std::string scheme;
  std::uint64_t target_insts = 0;
  [[nodiscard]] std::string name() const { return mix + "/" + scheme; }
};

inline constexpr std::uint64_t kWarmupInsts = 20'000;
inline constexpr std::uint64_t kProfileInsts = 100'000;

/// Sized so that every case of a workload costs about the same host time.
[[nodiscard]] const std::vector<ClosedCase>& closed_exact_cases();
[[nodiscard]] const std::vector<ClosedCase>& sampled_cases();

struct OpenCase {
  std::string scheme;
  double load = 0.0;  ///< offered requests per bus tick
  memsched::Tick ticks = 0;
  [[nodiscard]] std::string name() const;
};
[[nodiscard]] const std::vector<OpenCase>& open_loop_cases();

/// The mix whose profiled ME values rank the open loop's four request
/// sources under ME-LREQ.
inline constexpr const char* kOpenLoopMeMix = "4MIX-1";

/// Closed-loop system configuration: Table-1 defaults, audit and faults off.
[[nodiscard]] memsched::sim::SystemConfig closed_config(std::uint32_t cores,
                                                        memsched::sim::Engine engine);
[[nodiscard]] memsched::sim::OpenLoopConfig open_config(const OpenCase& c,
                                                        std::uint64_t seed);

/// Builds schedulers with ME tables profiled by sim::Experiment (one
/// profiling run per distinct application, cached).
class SchemeFactory {
 public:
  explicit SchemeFactory(std::uint64_t profile_seed);

  /// Profiles every application of `mix` (cached after the first call).
  [[nodiscard]] memsched::core::SchedulerArgs args_for(const std::string& mix);
  [[nodiscard]] memsched::sched::SchedulerPtr make(const std::string& scheme,
                                                   const std::string& mix);

 private:
  memsched::sim::Experiment exp_;
};

/// The fig-2-shaped sweep grid: {2,4,8}x{MEM-1,MIX-1} x the 8 fig-2 schemes.
[[nodiscard]] const std::vector<std::string>& fig2_schemes();
[[nodiscard]] memsched::harness::GridSpec sweep_grid(const Seeds& seeds);

/// Instructions one grid point ("mix/scheme") commits by plan: one profiling
/// and one single-core reference run per distinct application plus the
/// evaluation run, each warmup + its slice per core.
[[nodiscard]] std::uint64_t planned_point_insts(const memsched::harness::GridSpec& spec,
                                                const std::string& point);

}  // namespace perfbench
