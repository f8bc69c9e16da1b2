#include "cpu/core_model.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::cpu {

using cache::AccessOutcome;

CoreModel::LoadRing::LoadRing(std::uint32_t limit)
    : buf_(std::bit_ceil(std::max<std::size_t>(limit, 1))),
      mask_(buf_.size() - 1),
      limit_(limit) {}

void CoreModel::LoadRing::resize(std::size_t n) {
  if (n > limit_) {
    throw ckpt::SnapshotError("snapshot: " + std::to_string(n) +
                              " outstanding loads exceed the core's limit of " +
                              std::to_string(limit_) + " (min of lq_entries and l1d_mshr)");
  }
  std::fill_n(buf_.begin(), n, OutstandingLoad{});
  head_ = 0;
  size_ = n;
}

CoreModel::CoreModel(CoreId id, const CoreConfig& cfg, double dispatch_ipc,
                     trace::InstStream& stream, cache::CacheHierarchy& hierarchy)
    : id_(id),
      cfg_(cfg),
      dispatch_ipc_(dispatch_ipc),
      stream_(stream),
      hierarchy_(hierarchy),
      ifetch_(cfg.model_ifetch && stream.code_bytes() != 0),
      code_base_(stream.code_base()),
      code_bytes_(stream.code_bytes()),
      outstanding_(std::min(cfg.lq_entries, cfg.l1d_mshr)),
      insts_to_next_line_(cfg.insts_per_fetch_line) {
  MEMSCHED_ASSERT(dispatch_ipc > 0.0, "dispatch IPC must be positive");
  MEMSCHED_ASSERT(cfg.issue_width > 0 && cfg.rob_entries > 0, "invalid core config");
}

bool CoreModel::last_load_complete() const {
  if (!last_load_tracked_) return true;  // it was an L1 hit (or none yet)
  // Loads leave from the front and the last tracked one was pushed last, so
  // while it is outstanding it is the back entry; once it left, the list is
  // empty.
  if (outstanding_.empty()) return true;
  const CpuCycle done = outstanding_.back().done;
  return done != kPending && done <= cycle_;
}

CpuCycle CoreModel::blocked_wake() const {
  // kPending == kIdle, so a load still waiting for its fill adds nothing.
  CpuCycle wake = kIdle;
  for (const OutstandingLoad& o : outstanding_) wake = std::min(wake, o.done);
  if (frontend_ready_ > cycle_) wake = std::min(wake, frontend_ready_);
  return wake;
}

void CoreModel::do_ifetch_accounting() {
  if (!ifetch_) return;
  if (--insts_to_next_line_ > 0) return;
  insts_to_next_line_ = cfg_.insts_per_fetch_line;
  const Addr addr = code_base_ + code_pos_;
  code_pos_ = (code_pos_ + kLineBytes) % code_bytes_;
  const std::uint64_t token = make_token(id_, next_token_seq_++, /*ifetch=*/true);
  const cache::AccessReply reply = hierarchy_.ifetch(id_, addr, cycle_, token);
  switch (reply.outcome) {
    case AccessOutcome::kHitL1:
      break;  // pipelined fetch, no stall
    case AccessOutcome::kHitL2:
      frontend_ready_ = reply.done_cpu;
      break;
    case AccessOutcome::kMiss:
      frontend_ready_ = kPending;
      frontend_token_ = token;
      break;
    case AccessOutcome::kRetry:
      // Treat as a short fixed stall and refetch the same line next time.
      frontend_ready_ = cycle_ + 4;
      insts_to_next_line_ = 1;
      code_pos_ = (code_pos_ + code_bytes_ - kLineBytes) % code_bytes_;
      break;
  }
}

bool CoreModel::try_issue_one() {
  // ROB occupancy limit.
  if (issue_num_ - commit_num_ >= cfg_.rob_entries) {
    ++stats_.stall_rob;
    last_stall_ = StallKind::kRob;
    return false;
  }
  if (!have_pending_rec_) {
    pending_rec_ = stream_.next();
    have_pending_rec_ = true;
  }
  const trace::InstRecord& rec = pending_rec_;

  switch (rec.cls) {
    case trace::InstClass::kCompute:
      break;  // always issuable

    case trace::InstClass::kLoad: {
      if (rec.dep_on_prev && !last_load_complete()) {
        ++stats_.stall_dep;
        last_stall_ = StallKind::kDep;
        return false;
      }
      if (outstanding_.full()) {
        ++stats_.stall_mshr;
        last_stall_ = StallKind::kMshr;
        return false;
      }
      // The token sequence number is consumed only when the access goes
      // through: a back-pressured attempt is repeated a different number of
      // times under different stepping windows, and must stay a pure no-op.
      const std::uint64_t token = make_token(id_, next_token_seq_, /*ifetch=*/false);
      const cache::AccessReply reply = hierarchy_.load(id_, rec.addr, cycle_, token);
      switch (reply.outcome) {
        case AccessOutcome::kRetry:
          ++stats_.stall_backpressure;
          last_stall_ = StallKind::kBackpressure;
          return false;
        case AccessOutcome::kHitL1:
          // Completes within the pipeline; never blocks commit in practice.
          ++stats_.l1d_hits;
          last_load_tracked_ = false;
          break;
        case AccessOutcome::kHitL2:
          ++stats_.l2_hits;
          outstanding_.push_back({issue_num_, reply.done_cpu, token});
          last_load_token_ = token;
          last_load_tracked_ = true;
          break;
        case AccessOutcome::kMiss:
          ++stats_.dram_loads;
          outstanding_.push_back({issue_num_, kPending, token});
          last_load_token_ = token;
          last_load_tracked_ = true;
          break;
      }
      ++next_token_seq_;
      ++stats_.loads;
      break;
    }

    case trace::InstClass::kStore: {
      if (store_q_used_ >= cfg_.sq_entries) {
        ++stats_.stall_sq;
        last_stall_ = StallKind::kSq;
        return false;
      }
      // A hit retires instantly; a miss occupies a store-queue entry until
      // its fill returns (tracked via a bit-62 token). Every L1 miss that
      // goes through consumes a token number, an L2 hit included.
      const std::uint64_t token = make_token(id_, next_token_seq_, false, /*store=*/true);
      const AccessOutcome outcome = hierarchy_.store(id_, rec.addr, token);
      if (outcome == AccessOutcome::kRetry) {
        ++stats_.stall_backpressure;
        last_stall_ = StallKind::kBackpressure;
        return false;
      }
      if (outcome != AccessOutcome::kHitL1) ++next_token_seq_;
      if (outcome == AccessOutcome::kMiss) ++store_q_used_;  // our token waits on the fill
      ++stats_.stores;
      break;
    }
  }

  have_pending_rec_ = false;
  ++issue_num_;
  do_ifetch_accounting();
  return true;
}

void CoreModel::account_stall_span(CpuCycle span) {
  if (span == 0 || last_stall_ == StallKind::kNone) return;
  switch (last_stall_) {
    case StallKind::kRob: stats_.stall_rob += span; break;
    case StallKind::kDep: stats_.stall_dep += span; break;
    case StallKind::kMshr: stats_.stall_mshr += span; break;
    case StallKind::kSq: stats_.stall_sq += span; break;
    case StallKind::kBackpressure: stats_.stall_backpressure += span; break;
    case StallKind::kFrontend: stats_.stall_frontend += span; break;
    case StallKind::kNone: break;
  }
  if (last_stall_ == StallKind::kFrontend) return;
  // Replicate the per-cycle accrual `budget_ = min(budget_ + ipc, width)`
  // for each skipped cycle — the cap is a fixed point, so stop there. The
  // add-per-cycle loop (not one fused multiply) keeps the floating-point
  // value bit-identical to unit stepping.
  const auto width = static_cast<double>(cfg_.issue_width);
  for (CpuCycle i = 0; i < span; ++i) {
    const double next = budget_ + dispatch_ipc_;
    if (next >= width) {
      budget_ = width;
      break;
    }
    budget_ = next;
  }
}

void CoreModel::step_to(CpuCycle target_cpu) {
  self_wake_ = target_cpu;  // active unless the window ends provably blocked
  if (paused_) {
    // Drain mode: retire and commit what is in flight, fetch and dispatch
    // nothing, accrue no stall statistics (the next interval's warmup+reset
    // would wipe them anyway, but keeping them clean avoids surprises).
    while (cycle_ < target_cpu) {
      while (!outstanding_.empty() && outstanding_.front().done != kPending &&
             outstanding_.front().done <= cycle_) {
        outstanding_.pop_front();
      }
      const std::uint64_t commit_limit =
          outstanding_.empty() ? issue_num_ : outstanding_.front().inst_num;
      commit_num_ = std::min(commit_num_ + cfg_.issue_width, commit_limit);
      ++cycle_;
      if (outstanding_.empty() && commit_num_ == issue_num_) {
        cycle_ = target_cpu;  // fully drained — nothing left to advance
        self_wake_ = kIdle;
      }
    }
    return;
  }
  while (cycle_ < target_cpu) {
    // Retire loads whose data has arrived (front of the program-order list).
    while (!outstanding_.empty() && outstanding_.front().done != kPending &&
           outstanding_.front().done <= cycle_) {
      outstanding_.pop_front();
    }

    // In-order commit up to the oldest incomplete load, at most issue_width
    // per cycle.
    const std::uint64_t commit_limit =
        outstanding_.empty() ? issue_num_ : outstanding_.front().inst_num;
    commit_num_ = std::min(commit_num_ + cfg_.issue_width, commit_limit);

    // Dispatch.
    bool issue_blocked = false;
    if (frontend_ready_ == kPending || frontend_ready_ > cycle_) {
      ++stats_.stall_frontend;
      last_stall_ = StallKind::kFrontend;
      issue_blocked = true;
    } else {
      budget_ = std::min(budget_ + dispatch_ipc_, static_cast<double>(cfg_.issue_width));
      while (budget_ >= 1.0) {
        if (!try_issue_one()) {
          issue_blocked = true;
          break;
        }
        budget_ -= 1.0;
        if (frontend_ready_ == kPending || frontend_ready_ > cycle_) break;
      }
    }

    ++cycle_;

    // Fast-forward: if commit is blocked on an incomplete load AND issue is
    // blocked, only three events can change the core before the window ends
    // (fills arrive only at tick boundaries): the head load's completion
    // (retire, then commit frees ROB, LQ and MSHR space), the completion of
    // the back entry (the last tracked load, a dependent load's operand) and
    // frontend readiness. A load in between that completed changes nothing,
    // so jump to the earliest of the three. The skipped cycles still owe
    // their per-cycle stall/budget accounting. kPending == kIdle, so a
    // pending load adds no event.
    const bool commit_blocked =
        !outstanding_.empty() && commit_num_ == outstanding_.front().inst_num;
    if (issue_blocked && commit_blocked) {
      CpuCycle wake = outstanding_.front().done;  // >= cycle_, or it retired
      if (const CpuCycle last = outstanding_.back().done; last >= cycle_)
        wake = std::min(wake, last);
      if (frontend_ready_ > cycle_) wake = std::min(wake, frontend_ready_);
      if (wake > cycle_) {
        // Blocked through the window end: the stepping kernel may sleep
        // until the next known event (or an external fill). It is told
        // blocked_wake(), not `wake`: visited ticks and snapshot bytes
        // follow that rule.
        if (wake > target_cpu) self_wake_ = std::max(blocked_wake(), target_cpu);
        const CpuCycle to = std::min(wake, target_cpu);
        account_stall_span(to - cycle_);
        cycle_ = to;
      }
    }
  }
}

void CoreModel::functional_advance(std::uint64_t n) {
  functional_advance_private(n);
  functional_replay_shared();
}

void CoreModel::functional_advance_private(std::uint64_t n) {
  MEMSCHED_ASSERT(quiescent(), "functional_advance requires a drained core");
  // Consecutive references to one line collapse into a single warm touch:
  // with no intervening access to the same cache, repeats change neither
  // residency nor relative LRU order — only the dirty bit can still be
  // strengthened by a later store. Span-scoped, so detailed intervals in
  // between can never invalidate the memo.
  Addr last_line = ~Addr{0};
  bool last_dirty = false;
  const auto touch = [&](Addr line, bool is_write, bool is_ifetch) {
    if (!hierarchy_.functional_touch_l1(id_, line, is_write, is_ifetch))
      ff_l2_log_.push_back(line);
  };
  std::uint64_t remaining = n;
  while (remaining > 0) {
    trace::InstRecord rec;
    std::uint64_t consumed;
    if (have_pending_rec_) {
      rec = pending_rec_;
      have_pending_rec_ = false;
      consumed = 1;
    } else {
      // Batched: the stream skips the whole compute run in one call.
      consumed = stream_.next_ref(remaining, rec);
    }
    remaining -= consumed;
    if (rec.cls != trace::InstClass::kCompute) {
      const bool is_write = rec.cls == trace::InstClass::kStore;
      const Addr line = line_base(rec.addr);
      if (line != last_line) {
        touch(line, is_write, /*is_ifetch=*/false);
        last_line = line;
        last_dirty = is_write;
      } else if (is_write && !last_dirty) {
        touch(line, /*is_write=*/true, /*is_ifetch=*/false);
        last_dirty = true;
      }
    }
    // Keep the I-fetch line position in step with the instruction count so
    // detailed execution resumes fetching from the right code address: one
    // code-line touch per countdown expiry across the consumed span (the
    // touches land after the span's data touch, which only perturbs L2
    // recency interleaving between the independent L1I/L1D streams).
    if (ifetch_) {
      std::uint64_t span = consumed;
      while (span >= insts_to_next_line_) {
        span -= insts_to_next_line_;
        insts_to_next_line_ = cfg_.insts_per_fetch_line;
        const Addr addr = code_base_ + code_pos_;
        code_pos_ = (code_pos_ + kLineBytes) % code_bytes_;
        touch(line_base(addr), /*is_write=*/false, /*is_ifetch=*/true);
      }
      insts_to_next_line_ -= static_cast<std::uint32_t>(span);
    }
  }
  issue_num_ += n;
  commit_num_ += n;
  last_load_tracked_ = false;  // nothing in flight to depend on
}

void CoreModel::functional_replay_shared() {
  hierarchy_.functional_fill_l2(ff_l2_log_);
  ff_l2_log_.clear();  // keeps its capacity: steady-state spans do not allocate
}

void CoreModel::on_fill(std::uint64_t token, CpuCycle done_cpu) {
  if (token >> 63) {
    // Frontend fill.
    if (frontend_ready_ == kPending && token == frontend_token_) {
      frontend_ready_ = std::max(done_cpu, cycle_);
      self_wake_ = std::min(self_wake_, frontend_ready_);
    }
    return;
  }
  if ((token >> 62) & 1) {
    // Store-queue entry retires with its fill; a stalled store could issue
    // right away.
    MEMSCHED_ASSERT(store_q_used_ > 0, "store queue accounting underflow");
    --store_q_used_;
    self_wake_ = std::min(self_wake_, cycle_);
    return;
  }
  for (OutstandingLoad& o : outstanding_) {
    if (o.token == token) {
      MEMSCHED_ASSERT(o.done == kPending, "double fill for one load");
      o.done = std::max(done_cpu, cycle_);
      self_wake_ = std::min(self_wake_, o.done);
      return;
    }
  }
  // Token not found: the load was an MSHR merge whose entry the core never
  // tracked? Cannot happen — every kMiss reply records a token. Abort.
  MEMSCHED_ASSERT(false, "fill for unknown load token");
}

template <class Self, class Io>
void CoreModel::fields(Self& self, Io& io) {
  io(self.cycle_);
  io(self.issue_num_);
  io(self.commit_num_);
  io(self.budget_);
  io(self.last_stall_);
  io(self.self_wake_);
  io.seq(self.outstanding_, [&](auto& l) {
    io(l.inst_num);
    io(l.done);
    io(l.token);
  });
  io(self.next_token_seq_);
  io(self.have_pending_rec_);
  io(self.pending_rec_.cls);
  io(self.pending_rec_.addr);
  io(self.pending_rec_.dep_on_prev);
  io(self.last_load_token_);
  io(self.last_load_tracked_);
  io(self.store_q_used_);
  io(self.insts_to_next_line_);
  io(self.code_pos_);
  io(self.frontend_ready_);
  io(self.frontend_token_);
  io(self.stats_.loads);
  io(self.stats_.stores);
  io(self.stats_.l1d_hits);
  io(self.stats_.l2_hits);
  io(self.stats_.dram_loads);
  io(self.stats_.stall_rob);
  io(self.stats_.stall_dep);
  io(self.stats_.stall_mshr);
  io(self.stats_.stall_sq);
  io(self.stats_.stall_backpressure);
  io(self.stats_.stall_frontend);
}

void CoreModel::save_state(ckpt::Writer& w) const { fields(*this, w); }

void CoreModel::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::cpu
