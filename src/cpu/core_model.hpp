// Out-of-order core performance model.
//
// Trace-driven occupancy model of the paper's Table-1 core (4-issue,
// 196-entry ROB, 32-entry LQ/SQ, 16-stage pipeline at 3.2 GHz). The model
// captures what the memory system sees and feels:
//
//   * dispatch proceeds at the application's inherent ILP rate (dispatch_ipc)
//     up to issue_width, while the ROB has room;
//   * loads issue into the cache hierarchy; L1 hits complete immediately,
//     deeper hits/misses occupy the load queue / L1D MSHRs and block in-order
//     commit when they reach the ROB head — multiple independent misses
//     inside the ROB window overlap (memory-level parallelism), while
//     dependent (pointer-chasing) loads serialize;
//   * stores retire into the hierarchy without stalling commit (store queue
//     semantics), back-pressured only by L2-MSHR availability;
//   * optional I-fetch modeling: one line fetch per 16 instructions; an
//     L1I miss stalls the frontend until the line returns.
//
// The model is stepped in CPU-cycle windows by the simulation kernel
// (cpu_ratio cycles per memory-bus tick) and fast-forwards through cycles
// where both commit and issue are provably blocked, straight to the next
// event that can unblock them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/hierarchy.hpp"
#include "trace/inst_stream.hpp"
#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::cpu {

struct CoreConfig {
  std::uint32_t issue_width = 4;
  std::uint32_t rob_entries = 196;
  std::uint32_t lq_entries = 32;
  std::uint32_t sq_entries = 32;
  std::uint32_t l1d_mshr = 32;  ///< max outstanding L1D misses (Table 1)
  std::uint32_t l1i_mshr = 8;
  bool model_ifetch = true;
  std::uint32_t insts_per_fetch_line = 16;  ///< 64 B line / 4 B instructions
};

struct CoreRunStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1d_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t dram_loads = 0;
  std::uint64_t stall_rob = 0;       ///< cycles issue blocked: ROB full
  std::uint64_t stall_dep = 0;       ///< dependent load waiting
  std::uint64_t stall_mshr = 0;      ///< LQ / L1D MSHR full
  std::uint64_t stall_sq = 0;        ///< store queue full
  std::uint64_t stall_backpressure = 0;  ///< L2 MSHR / controller retry
  std::uint64_t stall_frontend = 0;  ///< I-fetch miss
};

/// 64-byte aligned: the sampled engine fast-forwards the cores
/// concurrently, and each one writes its own CoreModel per instruction.
class alignas(64) CoreModel {
 public:
  CoreModel(CoreId id, const CoreConfig& cfg, double dispatch_ipc,
            trace::InstStream& stream, cache::CacheHierarchy& hierarchy);

  /// Advance the core to absolute CPU cycle `target_cpu` (exclusive).
  void step_to(CpuCycle target_cpu);

  /// Fill delivery for a waiter token this core registered.
  void on_fill(std::uint64_t token, CpuCycle done_cpu);

  /// Sentinel for next_activity_cycle(): progress needs an external fill.
  static constexpr CpuCycle kIdle = ~CpuCycle{0};

  /// Earliest CPU cycle at which this core can make progress on its own:
  /// the last stepping-window end while the core was actively issuing or
  /// committing, the earliest known completion of any outstanding load (or
  /// frontend-ready cycle) while blocked, or kIdle when only an external
  /// fill can unblock it. May be conservatively early, never late; refreshed
  /// by step_to and on_fill. Checkpointed, and it decides which ticks the
  /// skip engine visits, so its rule stays the full-list minimum even though
  /// step_to itself skips further (docs/performance.md, "Core front end").
  [[nodiscard]] CpuCycle next_activity_cycle() const { return self_wake_; }

  [[nodiscard]] CoreId id() const { return id_; }
  [[nodiscard]] std::uint64_t committed() const { return commit_num_; }
  [[nodiscard]] CpuCycle cycle() const { return cycle_; }
  [[nodiscard]] std::uint32_t outstanding_misses() const {
    return static_cast<std::uint32_t>(outstanding_.size());
  }
  [[nodiscard]] std::uint32_t outstanding_stores() const { return store_q_used_; }
  [[nodiscard]] const CoreRunStats& stats() const { return stats_; }

  /// Zero the stall/access counters (pipeline state untouched).
  void reset_stats() { stats_ = CoreRunStats{}; }

  // --- sampled-engine support -------------------------------------------
  /// A paused core retires and commits what is already in flight but
  /// fetches/dispatches nothing — used to drain the system to a quiescent
  /// point before a functional fast-forward. Not checkpointed: pause is a
  /// transient run_sampled-internal state.
  void set_paused(bool paused) { paused_ = paused; }
  [[nodiscard]] bool paused() const { return paused_; }

  /// True when nothing is in flight in this core: every issued instruction
  /// committed, no outstanding loads or store-queue fills, frontend not
  /// waiting on a miss.
  [[nodiscard]] bool quiescent() const {
    return outstanding_.empty() && commit_num_ == issue_num_ &&
           store_q_used_ == 0 && frontend_ready_ != kPending;
  }

  /// Functionally execute the next `n` trace instructions: the stream and
  /// the issue/commit counters advance and the cache hierarchy stays warm
  /// via timing-free touches, but no cycles pass and no statistics accrue.
  /// Requires quiescent() (fills in flight would race the skipped stream).
  /// Equivalent to functional_advance_private(n) then
  /// functional_replay_shared().
  void functional_advance(std::uint64_t n);

  /// Private half of functional_advance: consumes the stream and touches
  /// only this core's L1I/L1D, logging each line that missed L1. It touches
  /// no state shared with other cores, so distinct cores may run it
  /// concurrently.
  void functional_advance_private(std::uint64_t n);

  /// Shared half: replays the logged L1-miss lines into the shared L2 in
  /// order, then empties the log. No L1 outcome reads L2 state, so running
  /// every core's private half and then this for each core in core order
  /// leaves exactly the state of core-by-core functional_advance calls.
  void functional_replay_shared();

  /// Pack/unpack waiter tokens: the simulation kernel routes fills by core.
  /// Bit 63 marks I-fetch tokens, bit 62 store-queue tokens.
  static std::uint64_t make_token(CoreId core, std::uint64_t seq, bool ifetch,
                                  bool store = false) {
    return (static_cast<std::uint64_t>(ifetch) << 63) |
           (static_cast<std::uint64_t>(store) << 62) |
           (static_cast<std::uint64_t>(core) << 48) | (seq & 0xffffffffffffULL);
  }
  static CoreId token_core(std::uint64_t token) {
    return static_cast<CoreId>((token >> 48) & 0x3fff);
  }

  /// Checkpoint/restore: pipeline occupancy, outstanding loads, frontend
  /// state, dispatch budget and stall counters. The instruction stream is
  /// saved separately by the caller (the system snapshot).
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  /// A load's `done` or `frontend_ready_` while its fill is outstanding.
  /// Equal to kIdle, so the wake-up minima in step_to take pending entries
  /// without a branch.
  static constexpr CpuCycle kPending = kIdle;

  struct OutstandingLoad {
    std::uint64_t inst_num;  ///< position in program order
    CpuCycle done;           ///< kPending until the fill arrives
    std::uint64_t token;
  };

  /// The L1-missing loads in issue order, in a ring allocated once: a load
  /// stalls while the ring is full() (min(lq_entries, l1d_mshr) entries),
  /// so the core never holds more. Iterates front to back and offers what
  /// io.seq needs (size, clear, resize, begin/end).
  class LoadRing {
   public:
    explicit LoadRing(std::uint32_t limit);

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] bool full() const { return size_ >= limit_; }
    [[nodiscard]] std::size_t size() const { return size_; }
    OutstandingLoad& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const OutstandingLoad& operator[](std::size_t i) const {
      return buf_[(head_ + i) & mask_];
    }
    [[nodiscard]] const OutstandingLoad& front() const { return buf_[head_]; }
    [[nodiscard]] const OutstandingLoad& back() const { return (*this)[size_ - 1]; }
    void push_back(const OutstandingLoad& l) { buf_[(head_ + size_++) & mask_] = l; }
    void pop_front() {
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    void clear() { head_ = size_ = 0; }
    /// For the snapshot reader: `n` zeroed entries. Refuses more than the
    /// limit with a SnapshotError naming both (the ring cannot grow).
    void resize(std::size_t n);

    template <class Ring>
    struct Iter {
      Ring* ring;
      std::size_t i;
      auto& operator*() const { return (*ring)[i]; }
      Iter& operator++() {
        ++i;
        return *this;
      }
      bool operator==(const Iter&) const = default;
    };
    Iter<LoadRing> begin() { return {this, 0}; }
    Iter<LoadRing> end() { return {this, size_}; }
    Iter<const LoadRing> begin() const { return {this, 0}; }
    Iter<const LoadRing> end() const { return {this, size_}; }

   private:
    std::vector<OutstandingLoad> buf_;  ///< power-of-two length >= limit_
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint32_t limit_;
  };

  /// Why the last failed issue attempt was blocked — which stall counter a
  /// fast-forwarded span belongs to.
  enum class StallKind : std::uint8_t {
    kNone, kRob, kDep, kMshr, kSq, kBackpressure, kFrontend
  };

  /// Try to issue one instruction; returns false when blocked this cycle
  /// (side-effect free on failure, and records the reason in last_stall_).
  bool try_issue_one();
  void do_ifetch_accounting();
  [[nodiscard]] bool last_load_complete() const;

  /// next_activity_cycle()'s rule for a core blocked through the window
  /// end: the earliest known completion of any outstanding load or the
  /// frontend-ready cycle, kIdle if none is known.
  [[nodiscard]] CpuCycle blocked_wake() const;

  /// Per-cycle accounting for `span` fast-forwarded blocked cycles: each
  /// would have bumped the last_stall_ counter once and (for issue-path
  /// stalls) accrued dispatch budget, exactly as unit stepping does — so
  /// stall counters and budget are invariant under window partitioning.
  void account_stall_span(CpuCycle span);

  CoreId id_;
  CoreConfig cfg_;
  double dispatch_ipc_;
  trace::InstStream& stream_;
  cache::CacheHierarchy& hierarchy_;
  // The stream's code region, fixed for its lifetime (InstStream).
  const bool ifetch_;  ///< model_ifetch and a non-empty code region
  const Addr code_base_;
  const std::uint64_t code_bytes_;

  CpuCycle cycle_ = 0;
  bool paused_ = false;           ///< see set_paused()
  std::uint64_t issue_num_ = 0;   ///< instructions dispatched
  std::uint64_t commit_num_ = 0;  ///< instructions committed (in order)
  double budget_ = 0.0;
  StallKind last_stall_ = StallKind::kNone;
  CpuCycle self_wake_ = 0;  ///< see next_activity_cycle()

  LoadRing outstanding_;
  std::uint64_t next_token_seq_ = 0;

  bool have_pending_rec_ = false;
  trace::InstRecord pending_rec_{};

  std::uint64_t last_load_token_ = 0;
  bool last_load_tracked_ = false;  ///< last load is (or was) in outstanding_

  std::uint32_t store_q_used_ = 0;  ///< store-miss entries awaiting their fill

  // Frontend state.
  std::uint32_t insts_to_next_line_;
  Addr code_pos_ = 0;
  CpuCycle frontend_ready_ = 0;  ///< issue allowed from this cycle; kPending while miss in flight
  std::uint64_t frontend_token_ = 0;

  CoreRunStats stats_;

  /// Lines that missed L1 in functional_advance_private, awaiting
  /// functional_replay_shared. Empty outside a fast-forward, so never
  /// checkpointed. Grows to one span's L1 misses and keeps that capacity
  /// (docs/performance.md, "Fast-forward memory").
  std::vector<Addr> ff_l2_log_;
};

}  // namespace memsched::cpu
