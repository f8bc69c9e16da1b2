// Cache hierarchy: per-core L1I/L1D, shared L2, L2 MSHRs, writeback queue.
//
// Reproduces Table 1: 64 KB 2-way L1I/L1D per core (1-cycle inst, 3-cycle
// data hit), one shared 4 MB 4-way L2 with 15-cycle hit latency, MSHRs of
// 8 (inst) / 32 (data) / 64 (L2). State updates happen at access time; the
// L2 MSHR file tracks in-flight DRAM fills and merges secondary misses.
// Write-back, write-allocate at both levels; dirty L2 victims go to the
// memory controller through a writeback queue drained once per bus cycle.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "cache/prefetcher.hpp"
#include "mc/controller.hpp"
#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::cache {

/// Per-core region description for checkpoint-style cache warming: the
/// hierarchy is pre-filled to steady-state occupancy (L2 full of footprint
/// lines at the app's dirty rate, L1s holding the hot/code sets) so short
/// measured runs start from the state a long-running program would have.
struct WarmSpec {
  Addr footprint_base = 0;
  std::uint64_t footprint_bytes = 0;
  double dirty_share = 0.0;  ///< probability a prefilled footprint line is dirty
  Addr hot_base = 0;
  std::uint64_t hot_bytes = 0;
  double hot_dirty_share = 0.0;
  Addr code_base = 0;
  std::uint64_t code_bytes = 0;
};

struct HierarchyConfig {
  CacheConfig l1i{.size_bytes = 64 * 1024, .ways = 2, .hit_latency_cpu = 1, .name = "L1I"};
  CacheConfig l1d{.size_bytes = 64 * 1024, .ways = 2, .hit_latency_cpu = 3, .name = "L1D"};
  CacheConfig l2{.size_bytes = 4ull * 1024 * 1024, .ways = 4, .hit_latency_cpu = 15, .name = "L2"};
  std::uint32_t l2_mshr_entries = 64;
  std::uint32_t cpu_ratio = 8;        ///< CPU cycles per bus tick
  std::uint32_t fill_return_cpu = 3;  ///< L2->L1->core return path on a DRAM fill
  PrefetchConfig prefetch{};          ///< L2 stream prefetcher (off by default)
};

/// Where a load/ifetch was satisfied, or why it could not proceed.
enum class AccessOutcome {
  kHitL1,   ///< done_cpu set
  kHitL2,   ///< done_cpu set
  kMiss,    ///< fill in flight; waiter token will be called back
  kRetry,   ///< L2 MSHR full — retry next cycle (back-pressure)
};

struct AccessReply {
  AccessOutcome outcome = AccessOutcome::kHitL1;
  CpuCycle done_cpu = 0;  ///< valid for kHitL1/kHitL2
};

class CacheHierarchy {
 public:
  /// Called when a DRAM fill completes, once per waiter registered on the
  /// line. `done_cpu` is the cycle the data reaches the core.
  using FillCallback = std::function<void(std::uint64_t waiter_token, CpuCycle done_cpu)>;

  CacheHierarchy(const HierarchyConfig& cfg, std::uint32_t core_count,
                 mc::MemoryController& controller);

  void set_fill_callback(FillCallback cb) { fill_cb_ = std::move(cb); }

  /// Data load by `core`. On kMiss the waiter token is remembered and the
  /// fill callback fires when the line returns.
  AccessReply load(CoreId core, Addr addr, CpuCycle now_cpu, std::uint64_t waiter_token);

  /// Data store (write-allocate), with load()'s outcomes minus the timing:
  /// kHitL1 or kHitL2 where the line was found, kRetry when back-pressured
  /// (retry next cycle). kMiss exactly when the line's fill is in flight
  /// after the call; then a given `waiter_token` is registered and the fill
  /// callback fires when the line arrives (the core model retires
  /// store-queue entries that way). Hits never call back.
  AccessOutcome store(CoreId core, Addr addr, std::uint64_t waiter_token = kNoWaiterToken);

  /// Public sentinel for "no completion callback wanted".
  static constexpr std::uint64_t kNoWaiterToken = ~std::uint64_t{0};

  /// Instruction fetch by `core` (same protocol as load).
  AccessReply ifetch(CoreId core, Addr addr, CpuCycle now_cpu, std::uint64_t waiter_token);

  /// Private half of the sampled engine's functional (timing-free)
  /// fast-forward: touches only `core`'s own L1I or L1D, keeping
  /// tag/LRU/dirty state warm without MSHRs, DRAM traffic, statistics or
  /// writebacks (a miss allocates via warm_insert, victim dropped). Returns
  /// false on an L1 miss, for which the caller owes functional_fill_l2 the
  /// line, in miss order. Shares no state between cores, so distinct cores
  /// may call it concurrently. Must not be called while a fill for the line
  /// is in flight; the sampled engine drains the system first.
  bool functional_touch_l1(CoreId core, Addr line, bool is_write, bool is_ifetch) {
    return (is_ifetch ? l1i_[core] : l1d_[core]).warm_touch(line, is_write);
  }

  /// Shared half: warm-insert the lines that missed L1 in
  /// functional_touch_l1 into L2, in order. No L1 outcome depends on L2
  /// state, so replaying each core's misses in core order reproduces a
  /// core-by-core serial fast-forward exactly.
  void functional_fill_l2(std::span<const Addr> lines);

  /// Once per bus cycle: dispatch pending MSHR fills and drain writebacks
  /// into the memory controller (both are back-pressured by its buffer).
  void tick(Tick now);

  /// Earliest tick > now at which tick() could do anything: now + 1 while
  /// undispatched MSHR entries or queued writebacks retry against the
  /// controller each cycle, kNeverTick otherwise (dispatched fills complete
  /// through the controller's completion path, not through tick()).
  [[nodiscard]] Tick next_activity_tick(Tick now) const {
    return l2_mshr_.any_undispatched() || !writeback_q_.empty() ? now + 1 : kNeverTick;
  }

  /// Number of L2-MSHR fills currently in flight.
  [[nodiscard]] std::uint32_t fills_in_flight() const { return l2_mshr_.in_use(); }
  [[nodiscard]] std::size_t writeback_queue_depth() const { return writeback_q_.size(); }
  [[nodiscard]] bool idle() const { return l2_mshr_.in_use() == 0 && writeback_q_.empty(); }

  [[nodiscard]] const StreamPrefetcher& prefetcher() const { return prefetcher_; }
  [[nodiscard]] std::uint64_t prefetches_issued() const { return pf_issued_; }
  [[nodiscard]] std::uint64_t prefetches_useful() const { return pf_useful_; }

  [[nodiscard]] const SetAssocCache& l1i(CoreId core) const { return l1i_[core]; }
  [[nodiscard]] const SetAssocCache& l1d(CoreId core) const { return l1d_[core]; }
  [[nodiscard]] const SetAssocCache& l2() const { return l2_; }
  [[nodiscard]] const MshrFile& l2_mshr() const { return l2_mshr_; }

  void reset();

  /// Pre-warm the hierarchy per the specs (one per core); see WarmSpec.
  void warm(const std::vector<WarmSpec>& specs, std::uint64_t seed);

  /// Zero all statistics (cache hit/miss counters) without touching state.
  void reset_stats();

  // --- checkpoint/restore (caches, MSHRs, prefetcher, writeback queue) ---
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  /// Shared L2 leg of a miss from either L1. Returns the reply; registers
  /// `waiter_token` when a DRAM fill is needed (unless it is kNoWaiterToken).
  AccessReply l2_access(CoreId core, Addr line, bool is_write, CpuCycle now_cpu,
                        std::uint64_t waiter_token);

  /// Insert a (dirty) L1 victim into L2; dirty L2 victims join writeback_q_.
  void l2_insert_writeback(CoreId core, Addr victim_line);

  /// Train the stream prefetcher on a demand L2 miss and allocate
  /// MSHR-tracked prefetch fills for its predictions.
  void issue_prefetches(CoreId core, Addr miss_line);

  void on_dram_fill(const mc::Request& req, Tick done_tick);

  HierarchyConfig cfg_;
  mc::MemoryController& controller_;
  std::vector<SetAssocCache> l1i_;
  std::vector<SetAssocCache> l1d_;
  SetAssocCache l2_;
  MshrFile l2_mshr_;
  StreamPrefetcher prefetcher_;
  std::uint64_t pf_issued_ = 0;
  std::uint64_t pf_useful_ = 0;
  std::deque<std::pair<CoreId, Addr>> writeback_q_;
  FillCallback fill_cb_;
  std::vector<std::uint64_t> scratch_waiters_;
  std::uint64_t wb_enqueued_ = 0;
};

}  // namespace memsched::cache
