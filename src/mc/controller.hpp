// Memory controller engine.
//
// Reproduces the controller of the paper's §3.2/§4.1:
//   * one shared M-entry request buffer (M = 64) holding a read queue and a
//     write queue, with per-core outstanding-request counters (Figure 1);
//   * read-bypass-write with write-drain hysteresis — when queued writes
//     reach half the buffer, writes are served first until they fall below
//     one quarter;
//   * a pluggable sched::Scheduler ranks eligible requests each time a
//     channel can start a new transaction;
//   * close-page command engine with hit-first command issue: a column
//     access uses auto-precharge unless another queued request targets the
//     same row of the same bank, in which case the row is left open for it;
//   * fixed controller pipeline overhead (15 ns) before a request becomes
//     schedulable;
//   * read-after-write forwarding from the write queue (served internally,
//     no DRAM traffic) and write combining of duplicate lines.
//
// Hot-path data layout (docs/performance.md): the request queues are flat
// structure-of-arrays — the per-tick scheduling scan touches only skinny
// parallel arrays (channel, visibility tick, bank slot, row, arrival order)
// while the full Request record rides alongside for winner extraction and
// checkpointing. Queues are split per DRAM channel, so a channel's
// scheduling scan never touches another channel's requests. Removal is O(1) swap-with-last; because pick()'s
// demand-over-prefetch filter is index-sensitive, collect_eligible()
// presents each queue's candidates in arrival order (what the legacy
// append-and-erase storage produced), so storage order never leaks into
// results. In-flight
// bank slots keep a per-channel valid bitmask, an incrementally maintained
// open-row index replaces per-candidate DRAM bank chasing, and completion
// records live in a sorted arena with a consumed-prefix head instead of a
// deque. All storage is reserved at construction — the steady-state tick
// path performs no heap allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dram/dram_system.hpp"
#include "mc/audit.hpp"
#include "mc/fault_injector.hpp"
#include "mc/request.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::mc {

/// Row-buffer management policy.
enum class PagePolicy {
  kClosePage,  ///< paper default: auto-precharge unless a queued request
               ///< will hit the open row (close page with lookahead, §4.1)
  kOpenPage,   ///< rows stay open until a conflicting request precharges them
  kAdaptive,   ///< per-bank 2-bit predictor: recent row hits keep the row
               ///< open, recent conflicts close it (history-based policy)
};

struct ControllerConfig {
  std::uint32_t buffer_entries = 64;  ///< Table 1: 64-entry buffer
  std::uint32_t overhead_ticks = 6;   ///< Table 1: 15 ns at the 400 MHz bus clock
  std::uint32_t drain_high = 32;      ///< enter drain mode (half of buffer)
  std::uint32_t drain_low = 16;       ///< leave drain mode (quarter of buffer)
  std::uint32_t cpu_ratio = 8;        ///< CPU cycles per bus tick (3.2 GHz / 400 MHz)
  bool forward_writes = true;         ///< read-after-write forwarding
  bool combine_writes = true;         ///< merge duplicate write lines
  PagePolicy page_policy = PagePolicy::kClosePage;
};

struct ControllerStats {
  std::uint64_t reads_served = 0;   ///< reads that used DRAM
  std::uint64_t writes_served = 0;
  std::uint64_t prefetch_reads = 0; ///< prefetch reads that used DRAM
  std::uint64_t read_forwards = 0;  ///< reads satisfied from the write queue
  std::uint64_t write_merges = 0;
  std::uint64_t row_hits = 0;       ///< transaction found its row open
  std::uint64_t row_closed = 0;
  std::uint64_t row_conflicts = 0;
  std::uint64_t drain_entries = 0;
  std::uint64_t sched_rounds = 0;   ///< scheduling decisions taken
  util::RunningStat read_latency_cpu;  ///< enqueue -> last data beat, CPU cycles
  /// Read-latency distribution (32-CPU-cycle buckets up to 8192 cycles).
  util::Histogram read_latency_hist{32.0, 256};
  std::vector<util::RunningStat> core_read_latency_cpu;  ///< per core
  std::vector<std::uint64_t> core_reads;                 ///< DRAM reads per core
  std::vector<std::uint64_t> core_writes;

  [[nodiscard]] double row_hit_rate() const {
    const auto total = row_hits + row_closed + row_conflicts;
    return total ? static_cast<double>(row_hits) / static_cast<double>(total) : 0.0;
  }
};

class MemoryController {
 public:
  /// Invoked when a read's last data beat arrives (or a forward resolves).
  using ReadCallback = std::function<void(const Request&, Tick done_tick)>;

  /// Observer invoked whenever a transaction is scheduled onto a bank:
  /// the request, its row-buffer outcome, and the decision tick. Used for
  /// DRAM-level trace capture and scheduling diagnostics.
  using TraceSink = std::function<void(const Request&, RowState, Tick)>;

  MemoryController(dram::DramSystem& dram, sched::Scheduler& scheduler,
                   const ControllerConfig& cfg, std::uint32_t core_count,
                   std::uint64_t seed);

  /// True if the buffer can take one more request.
  [[nodiscard]] bool can_accept() const { return occupied_ < cfg_.buffer_entries; }

  /// Enqueue a line read/write. Returns false (and changes nothing) when the
  /// buffer is full — the caller (L2 MSHR) must retry later. Prefetch reads
  /// travel the same path but rank strictly after demand reads.
  bool enqueue_read(CoreId core, Addr line_addr, Tick now, bool is_prefetch = false);
  bool enqueue_write(CoreId core, Addr line_addr, Tick now);

  void set_read_callback(ReadCallback cb) { read_cb_ = std::move(cb); }
  void set_trace_sink(TraceSink sink) { trace_sink_ = std::move(sink); }

  /// Attach a request-lifecycle auditor (nullptr detaches). Zero overhead
  /// when detached; compiled out entirely with MEMSCHED_VERIF_ENABLED=0.
  void set_auditor(RequestAuditor* auditor) { auditor_ = auditor; }

  /// Attach a fault injector (nullptr detaches). Detached, the request path
  /// is bit-identical to a controller without the hooks — chaos runs must
  /// not perturb paper results when switched off.
  void set_fault_injector(FaultInjector* injector) { fault_ = injector; }

  /// Advance one bus cycle: progress in-flight transactions, start new ones
  /// via the scheduler, deliver completions.
  void tick(Tick now);

  /// Earliest tick > now at which tick() could do anything — deliver a
  /// completion, issue a DRAM command, start a transaction, or refresh — or
  /// kNeverTick when no queued or in-flight work exists. Every tick in
  /// (now, next_activity_tick(now)) is a provable no-op, which is what lets
  /// the fast-forward engine (sim::Engine::kSkip) jump over it. The value
  /// may be conservatively early (a wasted visit), never late. With a fault
  /// injector attached the answer is always now + 1: the stall fault draws
  /// RNG per channel per tick, so skipping would change the stream.
  [[nodiscard]] Tick next_activity_tick(Tick now) const;

  /// Drain state and queue occupancy (for tests and back-pressure probes).
  [[nodiscard]] bool drain_mode() const { return drain_mode_; }
  [[nodiscard]] std::uint32_t queued_reads() const { return read_total_; }
  [[nodiscard]] std::uint32_t queued_writes() const { return write_total_; }
  [[nodiscard]] std::uint32_t occupied() const { return occupied_; }
  [[nodiscard]] std::uint32_t pending_reads(CoreId core) const { return pending_reads_[core]; }
  [[nodiscard]] std::uint32_t pending_writes(CoreId core) const { return pending_writes_[core]; }
  [[nodiscard]] bool idle() const;  ///< no queued or in-flight work

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }

  /// Requests that finished since the last reset_stats() — the forward-
  /// progress signal the livelock watchdog polls.
  [[nodiscard]] std::uint64_t served_total() const {
    return stats_.reads_served + stats_.writes_served + stats_.read_forwards;
  }

  /// Multi-line scheduler/queue state snapshot for livelock diagnostics:
  /// queue occupancy, drain mode, per-core pending counters, in-flight
  /// slots and the oldest queued requests per class.
  [[nodiscard]] std::string dump_state(Tick now) const;

  /// Zero all statistics (queue/DRAM state untouched) — measurement begins
  /// after warmup.
  void reset_stats();
  [[nodiscard]] dram::DramSystem& dram() { return dram_; }
  [[nodiscard]] const ControllerConfig& config() const { return cfg_; }

  /// Checkpoint/restore: queues, in-flight slots, pending completions, drain
  /// state, RNG and statistics. Owned DRAM state is NOT included — the
  /// system-level snapshot saves it through its own section. Queues are
  /// serialized in storage order (swap-removal order), which round-trips
  /// exactly; derived indices (per-channel masks/counts, the open-row cache)
  /// are rebuilt on load.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  enum class Phase : std::uint8_t { kNeedPrecharge, kNeedActivate, kNeedCas };

  /// Sentinel for open_row_cache_: bank has no open row (real row numbers
  /// are bounded by the device geometry and can never equal it).
  static constexpr std::uint64_t kNoOpenRow = ~std::uint64_t{0};

  /// Flat structure-of-arrays request queue. The scheduling scans touch only
  /// the skinny arrays below; `rec` holds the complete Request for winner
  /// extraction, forwarding/combining checks and checkpointing. Entries are
  /// removed by swapping with the last element — O(1), storage order is not
  /// result-visible (see class comment).
  struct SoaQueue {
    std::vector<Tick> vis;             ///< visible_tick (overhead window end)
    std::vector<std::uint32_t> slot;   ///< precomputed slot_index(channel, bank)
    std::vector<std::uint64_t> row;    ///< dram row
    std::vector<std::uint64_t> ord;    ///< arrival order (unique)
    std::vector<Addr> line;            ///< line address (forwarding/combining)
    std::vector<CoreId> core;          ///< issuing core
    std::vector<std::uint8_t> pf;      ///< is_prefetch
    std::vector<Request> rec;          ///< full record

    [[nodiscard]] std::size_t size() const { return rec.size(); }
    [[nodiscard]] bool empty() const { return rec.empty(); }

    void reserve(std::size_t n) {
      vis.reserve(n);
      slot.reserve(n);
      row.reserve(n);
      ord.reserve(n);
      line.reserve(n);
      core.reserve(n);
      pf.reserve(n);
      rec.reserve(n);
    }

    void push(const Request& r, std::uint32_t slot_idx) {
      vis.push_back(r.visible_tick);
      slot.push_back(slot_idx);
      row.push_back(r.dram.row);
      ord.push_back(r.order);
      line.push_back(r.line_addr);
      core.push_back(r.core);
      pf.push_back(r.is_prefetch ? 1 : 0);
      rec.push_back(r);
    }

    void swap_remove(std::size_t i) {
      const std::size_t last = rec.size() - 1;
      vis[i] = vis[last];
      vis.pop_back();
      slot[i] = slot[last];
      slot.pop_back();
      row[i] = row[last];
      row.pop_back();
      ord[i] = ord[last];
      ord.pop_back();
      line[i] = line[last];
      line.pop_back();
      core[i] = core[last];
      core.pop_back();
      pf[i] = pf[last];
      pf.pop_back();
      rec[i] = rec[last];
      rec.pop_back();
    }

    void clear() {
      vis.clear();
      slot.clear();
      row.clear();
      ord.clear();
      line.clear();
      core.clear();
      pf.clear();
      rec.clear();
    }
  };

  struct Completion {
    Tick done = 0;
    Request req;
  };

  [[nodiscard]] std::size_t slot_index(std::uint32_t channel, std::uint32_t bank) const {
    return static_cast<std::size_t>(channel) * banks_per_channel_ + bank;
  }

  /// Builds a fresh request (next id, next arrival order). `extra_delay`
  /// extends the controller-overhead window (fault injection only).
  Request make_request(CoreId core, Addr line_addr, bool is_write, bool is_prefetch,
                       Tick now, Tick extra_delay);

  /// True when a write to `line_addr` is queued: the existence check behind
  /// read forwarding and write combining.
  [[nodiscard]] bool write_queued(Addr line_addr) const;

  /// Queues an accepted request on its class's queue for its channel, with
  /// the counters and audit every accepted request gets.
  void queue_request(const Request& req, Tick now);

  /// Fills a QueueSnapshot as of tick `now` from the live counters.
  [[nodiscard]] sched::QueueSnapshot make_snapshot(Tick now) const;

  /// Epoch catch-up: fires the scheduler's on_epoch(Tick, snap) for every
  /// boundary <= now that has not been processed yet, oldest first, then
  /// clears the interval statistics. Called at the top of tick() and of both
  /// enqueue paths — i.e. before *any* scheduler-visible mutation at a tick
  /// past the boundary. Because every such mutation happens at ticks both
  /// engines visit, and the callback receives the boundary tick (not `now`),
  /// the (on_epoch, on_served) call sequence — and therefore all policy
  /// state — is bit-identical between the cycle and skip engines even though
  /// the skip engine may process a boundary late.
  void roll_epochs(Tick now);
  void maybe_roll_epochs(Tick now) {
    if (epoch_len_ != 0 && now >= next_epoch_) roll_epochs(now);
  }

  [[nodiscard]] RowState row_state_of(const Request& req) const;
  [[nodiscard]] bool another_queued_hit(const Request& req) const;
  void update_drain_mode(Tick now);
  void advance_in_flight(std::uint32_t ch, Tick now);
  void schedule_new(std::uint32_t ch, Tick now);
  void deliver_completions(Tick now);
  void start_transaction(Request req, RowState state, Tick now);
  void record_read_done(const Request& req, Tick done);

  /// Sorted insert into the completion arena (ascending done tick, FIFO
  /// among equal ticks — delivery order is result-visible).
  void insert_completion(const Request& req, Tick done);

  /// Number of undelivered completion records.
  [[nodiscard]] std::size_t completions_pending() const {
    return completions_.size() - comp_head_;
  }

  /// Rebuilds every derived index (per-channel queue counts, in-flight
  /// masks, the open-row cache) from primary state after a restore.
  void rebuild_derived_state();

  /// Re-reads the open-row cache from the DRAM banks (after load_state(),
  /// where the DRAM section restores later than ours).
  void resync_open_rows();

  /// A scheduling candidate: a queued request eligible to start now. Carries
  /// every field pick() ranks on, so the priority stages never re-touch the
  /// queues.
  struct Cand {
    std::uint32_t queue_index;
    CoreId core;
    std::uint64_t order;
    bool from_write_queue;
    bool row_hit;
    bool is_prefetch;
  };

  /// Visibility summary of one queue on one channel, used by the bounded
  /// scheduling-window discipline of the FCFS-family schemes and by the
  /// scheduling-sleep machinery.
  struct QueueView {
    bool any_visible = false;        ///< some request is past the overhead
    Tick min_future_vis = kNeverTick;  ///< earliest not-yet-visible request
  };

  /// Collect candidates eligible from one per-channel queue into the
  /// fixed-capacity scratch at offset `n_cands` (branchless index store +
  /// conditional count increment, then a gather over the few survivors);
  /// returns the queue's visibility summary. When `collect_orders` every
  /// visible request's arrival order is appended to scratch_orders_ at
  /// n_orders (consumed only by the bounded scheduling window; skipping the
  /// append keeps the thread-aware schemes' queue scan store-free).
  QueueView collect_eligible(const SoaQueue& queue, bool is_write_queue,
                             Tick now, bool collect_orders,
                             std::size_t& n_cands, std::size_t& n_orders);

  /// Bounded-window discipline: drop candidates that are neither row hits
  /// nor among the `window` oldest visible requests. Returns the new count.
  std::size_t filter_window(std::uint32_t window, std::size_t n_orders,
                            std::size_t n_cands);

  /// Pick the winning candidate per the scheduler's lexicographic key;
  /// returns an index into scratch_cands_[0, n_cands) (must be non-empty).
  std::size_t pick(std::size_t n_cands);

  dram::DramSystem& dram_;
  sched::Scheduler& scheduler_;
  ControllerConfig cfg_;
  std::uint32_t core_count_;
  std::uint32_t banks_per_channel_;
  util::Xoshiro256 rng_;

  std::vector<SoaQueue> read_q_;   ///< one queue per channel
  std::vector<SoaQueue> write_q_;  ///< one queue per channel
  std::uint32_t read_total_ = 0;   ///< queued reads across channels
  std::uint32_t write_total_ = 0;  ///< queued writes across channels

  // In-flight bank slots, structure-of-arrays; one entry per (channel,
  // bank). slot_valid_ is the dense byte array the queue scans test;
  // ch_inflight_mask_ lets advance_in_flight() visit only occupied banks.
  std::vector<std::uint8_t> slot_valid_;
  std::vector<Phase> slot_phase_;
  std::vector<Request> slot_req_;
  std::vector<std::uint32_t> ch_inflight_mask_;  ///< bit b = slot (ch, b) valid

  /// Per-channel no-op elision (derived caches; a stale-low value is always
  /// safe, so dirty events just reset to 0). sched_sleep_until_[ch] is a
  /// proven lower bound on the next tick at which schedule_new(ch) could
  /// start a transaction — set only when a scan found zero eligible
  /// candidates, woken by enqueues, freed bank slots, drain flips and
  /// visibility expiry. cmd_sleep_until_[ch] is the same bound for
  /// advance_in_flight — set from the banks' next_*_tick lower bounds when
  /// a full pass issued nothing, woken by new transactions.
  std::vector<Tick> sched_sleep_until_;
  std::vector<Tick> cmd_sleep_until_;

  /// Open-row index: per (channel, bank) the currently open row, kNoOpenRow
  /// when the bank is precharged. Mirrors the DRAM bank state exactly —
  /// updated at every controller command-issue site (the controller is the
  /// device's only command source) and rebuilt lazily after load_state()
  /// (the DRAM section restores after the controller's).
  std::vector<std::uint64_t> open_row_cache_;
  bool row_cache_stale_ = false;

  /// Completion arena: ascending done tick from comp_head_ on; delivered
  /// records are a consumed prefix, compacted when it grows.
  std::vector<Completion> completions_;
  std::size_t comp_head_ = 0;

  std::vector<std::uint32_t> pending_reads_;
  std::vector<std::uint32_t> pending_writes_;
  std::vector<std::uint8_t> open_predictor_;  ///< per-bank 2-bit counters (adaptive)
  std::vector<Tick> next_refresh_;  ///< per channel, if refresh enabled

  // Scheduler ranking properties, cached at construction. The Scheduler
  // contract requires them to be constant over the scheduler's lifetime
  // (sched/scheduler.hpp); caching removes five virtual calls per channel
  // per tick from the scheduling path.
  std::uint32_t sch_window_;
  bool sch_hit_first_;
  bool sch_hit_above_;
  bool sch_read_first_;
  bool sch_random_tie_;

  // Interval bookkeeping for epoch-aware schemes. epoch_len_ is cached from
  // scheduler.epoch_ticks() at construction; when 0 every update below is
  // behind one predictable branch and the paper schemes are unaffected.
  Tick epoch_len_ = 0;
  Tick next_epoch_ = 0;
  std::uint64_t epoch_index_ = 0;
  std::vector<std::uint32_t> interval_served_;    ///< per core, this interval
  std::vector<std::uint32_t> interval_arrivals_;  ///< per core, this interval
  CoreId streak_core_ = kInvalidCore;
  std::uint32_t streak_len_ = 0;

  std::uint32_t occupied_ = 0;  ///< queued + in-flight entries
  std::uint32_t inflight_count_ = 0;
  bool drain_mode_ = false;
  RequestId next_id_ = 0;
  std::uint64_t next_order_ = 0;
  ReadCallback read_cb_;
  TraceSink trace_sink_;
  RequestAuditor* auditor_ = nullptr;
  FaultInjector* fault_ = nullptr;
  ControllerStats stats_;

  // Fixed-capacity scratch (sized at construction, never reallocated) for
  // the scheduling scans; counts are passed between the stages explicitly.
  std::vector<Cand> scratch_cands_;
  std::vector<std::uint32_t> scratch_idx_;  ///< eligible queue indices, pre-gather
  std::vector<std::uint64_t> scratch_orders_;
  std::vector<Cand> scratch_demand_;   ///< pick()'s demand-over-prefetch subset
  std::vector<double> scratch_prio_;   ///< per-core priority cache, one pick()
};

}  // namespace memsched::mc
