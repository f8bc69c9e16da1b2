#include "mc/controller.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <type_traits>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::mc {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
}

// Lifecycle-audit hook: a single predicted-not-taken branch when no auditor
// is attached; removed entirely when the verif layer is compiled out.
#if MEMSCHED_VERIF_ENABLED
#define MC_AUDIT(call)                        \
  do {                                        \
    if (auditor_ != nullptr) auditor_->call;  \
  } while (false)
#else
#define MC_AUDIT(call) \
  do {                 \
  } while (false)
#endif

MemoryController::MemoryController(dram::DramSystem& dram, sched::Scheduler& scheduler,
                                   const ControllerConfig& cfg, std::uint32_t core_count,
                                   std::uint64_t seed)
    : dram_(dram),
      scheduler_(scheduler),
      cfg_(cfg),
      core_count_(core_count),
      banks_per_channel_(dram.organization().banks_per_channel()),
      rng_(seed),
      pending_reads_(core_count, 0),
      pending_writes_(core_count, 0) {
  MEMSCHED_ASSERT(core_count > 0, "controller needs at least one core");
  MEMSCHED_ASSERT(cfg.drain_low < cfg.drain_high, "drain hysteresis inverted");
  MEMSCHED_ASSERT(cfg.drain_high <= cfg.buffer_entries, "drain_high exceeds buffer");
  MEMSCHED_ASSERT(banks_per_channel_ <= 32, "per-channel bank mask is 32-bit");
  const std::size_t nslots =
      static_cast<std::size_t>(dram.organization().channels) * banks_per_channel_;
  slot_valid_.assign(nslots, 0);
  slot_phase_.assign(nslots, Phase::kNeedCas);
  slot_req_.resize(nslots);
  ch_inflight_mask_.assign(dram.channel_count(), 0);
  sched_sleep_until_.assign(dram.channel_count(), 0);
  cmd_sleep_until_.assign(dram.channel_count(), 0);
  open_row_cache_.assign(nslots, kNoOpenRow);
  row_cache_stale_ = true;  // adopt whatever state the device is in
  open_predictor_.assign(nslots, 2);  // weakly-open initial state
  stats_.core_read_latency_cpu.resize(core_count);
  stats_.core_reads.resize(core_count, 0);
  stats_.core_writes.resize(core_count, 0);
  read_q_.resize(dram.channel_count());
  write_q_.resize(dram.channel_count());
  for (SoaQueue& q : read_q_) q.reserve(cfg.buffer_entries);
  for (SoaQueue& q : write_q_) q.reserve(cfg.buffer_entries);
  completions_.reserve(2 * static_cast<std::size_t>(cfg.buffer_entries));
  // Fixed-capacity scratch: queued requests never exceed the buffer size, so
  // the branchless scans can store unconditionally without bounds checks.
  scratch_cands_.resize(cfg.buffer_entries);
  scratch_idx_.resize(cfg.buffer_entries);
  scratch_orders_.resize(cfg.buffer_entries);
  scratch_demand_.resize(cfg.buffer_entries);
  scratch_prio_.resize(core_count);
  if (dram.timing().refresh_enabled) {
    next_refresh_.assign(dram.channel_count(), dram.timing().tREFI);
  }
  // The snapshot's interval pointers must always be valid, so the arrays are
  // sized regardless; they only ever change when epoch_len_ != 0.
  interval_served_.assign(core_count, 0);
  interval_arrivals_.assign(core_count, 0);
  epoch_len_ = scheduler.epoch_ticks();
  next_epoch_ = epoch_len_;
  // Ranking properties are constant over the scheduler's lifetime (Scheduler
  // contract) — cache them out of the per-tick path.
  sch_window_ = scheduler.sched_window();
  sch_hit_first_ = scheduler.use_hit_first();
  sch_hit_above_ = scheduler.hit_first_above_core();
  sch_read_first_ = scheduler.use_read_first();
  sch_random_tie_ = scheduler.random_core_tie_break();
}

sched::QueueSnapshot MemoryController::make_snapshot(Tick now) const {
  sched::QueueSnapshot snap;
  snap.now = now;
  snap.core_count = core_count_;
  snap.pending_reads = pending_reads_.data();
  snap.pending_writes = pending_writes_.data();
  snap.drain_mode = drain_mode_;
  snap.epoch_len = epoch_len_;
  snap.epoch_start = epoch_len_ != 0 ? next_epoch_ - epoch_len_ : 0;
  snap.epoch_index = epoch_index_;
  snap.interval_served = interval_served_.data();
  snap.interval_arrivals = interval_arrivals_.data();
  snap.streak_core = streak_core_;
  snap.streak_len = streak_len_;
  return snap;
}

void MemoryController::roll_epochs(Tick now) {
  while (now >= next_epoch_) {
    // The callback sees the *ending* interval: its boundary tick and the
    // statistics accumulated over it, which are cleared right after.
    scheduler_.on_epoch(next_epoch_, make_snapshot(next_epoch_));
    std::fill(interval_served_.begin(), interval_served_.end(), 0);
    std::fill(interval_arrivals_.begin(), interval_arrivals_.end(), 0);
    streak_core_ = kInvalidCore;
    streak_len_ = 0;
    ++epoch_index_;
    next_epoch_ += epoch_len_;
  }
}

Request MemoryController::make_request(CoreId core, Addr line_addr, bool is_write,
                                       bool is_prefetch, Tick now, Tick extra_delay) {
  Request req;
  req.id = next_id_++;
  req.core = core;
  req.line_addr = line_addr;
  req.is_write = is_write;
  req.is_prefetch = is_prefetch;
  req.dram = dram_.address_map().decode(line_addr);
  req.enqueue_tick = now;
  req.visible_tick = now + cfg_.overhead_ticks + extra_delay;
  req.order = next_order_++;
  return req;
}

bool MemoryController::enqueue_read(CoreId core, Addr line_addr, Tick now,
                                    bool is_prefetch) {
  MEMSCHED_ASSERT(core < core_count_, "read from unknown core");
  maybe_roll_epochs(now);  // before any interval-counter mutation
  FaultInjector::EnqueueFault fault{};
  if (fault_ != nullptr) {
    fault = fault_->on_enqueue(/*is_write=*/false);
    if (fault.drop) {
      // Accepted, then lost inside the controller. The audit layer sees the
      // enqueue, so the lifecycle checker's counter cross-check / leak check
      // flags the corruption — unless a starving core trips the progress
      // watchdog first. Both are the induced failures chaos tests look for.
      MC_AUDIT(on_enqueue(make_request(core, line_addr, false, is_prefetch, now, 0), now));
      return true;
    }
  }
  if (cfg_.forward_writes && write_total_ != 0 && write_queued(line_addr)) {
    // Read-after-write forwarding: served from the write buffer after the
    // controller pipeline overhead; the data never touches DRAM.
    const Request req = make_request(core, line_addr, false, false, now, 0);
    const Tick done = req.visible_tick;
    insert_completion(req, done);
    ++stats_.read_forwards;
    MC_AUDIT(on_forward(req, done));
    return true;
  }
  if (!can_accept()) return false;
  queue_request(make_request(core, line_addr, false, is_prefetch, now, fault.delay_ticks),
                now);
  if (fault.duplicate && can_accept()) {
    queue_request(make_request(core, line_addr, false, is_prefetch, now, fault.delay_ticks),
                  now);
  }
  return true;
}

bool MemoryController::enqueue_write(CoreId core, Addr line_addr, Tick now) {
  MEMSCHED_ASSERT(core < core_count_, "write from unknown core");
  maybe_roll_epochs(now);  // before any interval-counter mutation
  FaultInjector::EnqueueFault fault{};
  if (fault_ != nullptr) {
    fault = fault_->on_enqueue(/*is_write=*/true);
    if (fault.drop) {
      MC_AUDIT(on_enqueue(make_request(core, line_addr, true, false, now, 0), now));
      return true;
    }
  }
  if (cfg_.combine_writes && write_total_ != 0 && write_queued(line_addr)) {
    ++stats_.write_merges;
    MC_AUDIT(on_merge(core, line_addr, now));
    return true;  // coalesced into the existing entry
  }
  if (!can_accept()) return false;
  queue_request(make_request(core, line_addr, true, false, now, fault.delay_ticks), now);
  if (fault.duplicate && can_accept()) {
    // A duplicated write lands on the same line; with write combining off it
    // costs a second DRAM transaction, with it on it is merged away later.
    queue_request(make_request(core, line_addr, true, false, now, fault.delay_ticks), now);
  }
  update_drain_mode(now);
  return true;
}

bool MemoryController::write_queued(Addr line_addr) const {
  // A line lives on exactly one channel, so only that queue can hold it.
  const SoaQueue& wq = write_q_[dram_.address_map().decode(line_addr).channel];
  return std::find(wq.line.begin(), wq.line.end(), line_addr) != wq.line.end();
}

void MemoryController::queue_request(const Request& req, [[maybe_unused]] Tick now) {
  const std::uint32_t ch = req.dram.channel;
  (req.is_write ? write_q_ : read_q_)[ch].push(
      req, static_cast<std::uint32_t>(slot_index(ch, req.dram.bank)));
  sched_sleep_until_[ch] = 0;
  ++(req.is_write ? write_total_ : read_total_);
  ++(req.is_write ? pending_writes_ : pending_reads_)[req.core];
  ++occupied_;
  if (epoch_len_ != 0) ++interval_arrivals_[req.core];
  MC_AUDIT(on_enqueue(req, now));
}

void MemoryController::update_drain_mode([[maybe_unused]] Tick now) {
  const std::uint32_t writes = write_total_;
  if (!drain_mode_ && writes >= cfg_.drain_high) {
    drain_mode_ = true;
    ++stats_.drain_entries;
    // Primary/secondary swapped: every channel's scheduling sleep is void.
    std::fill(sched_sleep_until_.begin(), sched_sleep_until_.end(), Tick{0});
    MC_AUDIT(on_drain(true, writes, now));
  } else if (drain_mode_ && writes <= cfg_.drain_low) {
    drain_mode_ = false;
    std::fill(sched_sleep_until_.begin(), sched_sleep_until_.end(), Tick{0});
    MC_AUDIT(on_drain(false, writes, now));
  }
}

RowState MemoryController::row_state_of(const Request& req) const {
  const std::uint64_t open =
      open_row_cache_[slot_index(req.dram.channel, req.dram.bank)];
  if (open == kNoOpenRow) return RowState::kClosed;
  return open == req.dram.row ? RowState::kHit : RowState::kConflict;
}

bool MemoryController::another_queued_hit(const Request& req) const {
  // Close-page with lookahead (§4.1): keep the row open only when some other
  // queued request will hit it; otherwise auto-precharge. Pure existence
  // check — the (channel, bank) pair is one slot-index compare.
  const auto s =
      static_cast<std::uint32_t>(slot_index(req.dram.channel, req.dram.bank));
  const auto scan = [&](const SoaQueue& q) {
    const std::size_t n = q.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (q.slot[i] == s && q.row[i] == req.dram.row && q.rec[i].id != req.id)
        return true;
    }
    return false;
  };
  return scan(read_q_[req.dram.channel]) || scan(write_q_[req.dram.channel]);
}

void MemoryController::record_read_done(const Request& req, Tick done) {
  const auto latency_cpu =
      static_cast<double>((done - req.enqueue_tick) * cfg_.cpu_ratio);
  stats_.read_latency_cpu.add(latency_cpu);
  stats_.read_latency_hist.add(latency_cpu);
  stats_.core_read_latency_cpu[req.core].add(latency_cpu);
}

void MemoryController::insert_completion(const Request& req, Tick done) {
  // Ascending done tick, FIFO among equal ticks — delivery order is
  // result-visible. Everything before comp_head_ is already delivered and
  // has done <= any new completion, so the search starts at the head.
  const auto it = std::upper_bound(
      completions_.begin() + static_cast<std::ptrdiff_t>(comp_head_),
      completions_.end(), done,
      [](Tick t, const Completion& c) { return t < c.done; });
  completions_.insert(it, Completion{done, req});
}

void MemoryController::advance_in_flight(std::uint32_t ch, Tick now) {
  const std::uint32_t mask = ch_inflight_mask_[ch];
  if (mask == 0) {
    cmd_sleep_until_[ch] = kNeverTick;  // woken by the next start_transaction
    return;
  }
  dram::Channel& channel = dram_.channel(ch);
  // Rotate the starting bank so command-bus slots are not monopolised by
  // low-numbered banks when several transactions are in flight. Visiting
  // the mask's set bits [start, banks) then [0, start) reproduces the
  // (start + i) % banks walk over the occupied banks only.
  const std::uint32_t start = static_cast<std::uint32_t>(now) % banks_per_channel_;
  const std::uint32_t low_bits = (1u << start) - 1;  // start == 0 -> empty set
  for (std::uint32_t part : {mask & ~low_bits, mask & low_bits}) {
    while (part != 0) {
      const auto b = static_cast<std::uint32_t>(std::countr_zero(part));
      part &= part - 1;
      const std::size_t idx = slot_index(ch, b);
      Request& req = slot_req_[idx];
      switch (slot_phase_[idx]) {
        case Phase::kNeedPrecharge:
          if (channel.can_precharge(b, now)) {
            channel.issue_precharge(b, now);
            open_row_cache_[idx] = kNoOpenRow;
            slot_phase_[idx] = Phase::kNeedActivate;
            return;  // command bus consumed this tick
          }
          break;
        case Phase::kNeedActivate:
          if (channel.can_activate(b, now)) {
            channel.issue_activate(b, req.dram.row, now);
            open_row_cache_[idx] = req.dram.row;
            slot_phase_[idx] = Phase::kNeedCas;
            return;
          }
          break;
        case Phase::kNeedCas: {
          const bool is_write = req.is_write;
          if (is_write ? channel.can_write(b, now) : channel.can_read(b, now)) {
            MEMSCHED_ASSERTF(channel.bank(b).open_row() == req.dram.row,
                             "CAS to wrong row: ch%u bank %u open row %llu, "
                             "request %llu wants row %llu at tick %llu",
                             ch, b,
                             static_cast<unsigned long long>(channel.bank(b).open_row()),
                             static_cast<unsigned long long>(req.id),
                             static_cast<unsigned long long>(req.dram.row),
                             static_cast<unsigned long long>(now));
            const bool predictor_open =
                cfg_.page_policy == PagePolicy::kAdaptive && open_predictor_[idx] >= 2;
            const bool keep_open = cfg_.page_policy == PagePolicy::kOpenPage ||
                                   predictor_open || another_queued_hit(req);
            if (is_write) {
              [[maybe_unused]] const Tick wdone = channel.issue_write(b, now, !keep_open);
              MC_AUDIT(on_cas(req, now, wdone));
              MEMSCHED_ASSERTF(pending_writes_[req.core] > 0,
                               "write counter underflow: core %u tick %llu", req.core,
                               static_cast<unsigned long long>(now));
              --pending_writes_[req.core];
              ++stats_.writes_served;
              ++stats_.core_writes[req.core];
            } else {
              const Tick done = channel.issue_read(b, now, !keep_open);
              MC_AUDIT(on_cas(req, now, done));
              MEMSCHED_ASSERTF(pending_reads_[req.core] > 0,
                               "read counter underflow: core %u tick %llu", req.core,
                               static_cast<unsigned long long>(now));
              --pending_reads_[req.core];
              ++stats_.reads_served;
              stats_.prefetch_reads += req.is_prefetch;
              ++stats_.core_reads[req.core];
              record_read_done(req, done);
              insert_completion(req, done);
            }
            if (!keep_open) open_row_cache_[idx] = kNoOpenRow;  // auto-precharge
            slot_valid_[idx] = 0;
            ch_inflight_mask_[ch] &= ~(1u << b);
            sched_sleep_until_[ch] = 0;  // a bank slot opened up
            MEMSCHED_ASSERT(inflight_count_ > 0 && occupied_ > 0, "slot accounting");
            --inflight_count_;
            --occupied_;
            return;
          }
          break;
        }
      }
    }
  }
  // Full pass issued nothing: every occupied slot is waiting out a timing
  // constraint. next_*_tick mirrors can_* exactly assuming no intervening
  // command, and none can arrive while we sleep — refresh requires an empty
  // channel and a new transaction resets the sleep — so the bound is exact.
  Tick wake = kNeverTick;
  for (std::uint32_t part = mask; part != 0; part &= part - 1) {
    const auto b = static_cast<std::uint32_t>(std::countr_zero(part));
    const std::size_t idx = slot_index(ch, b);
    Tick t = 0;
    switch (slot_phase_[idx]) {
      case Phase::kNeedPrecharge:
        t = channel.next_precharge_tick(b, now);
        break;
      case Phase::kNeedActivate:
        t = channel.next_activate_tick(b, now);
        break;
      case Phase::kNeedCas:
        t = slot_req_[idx].is_write ? channel.next_write_tick(b, now)
                                    : channel.next_read_tick(b, now);
        break;
    }
    wake = std::min(wake, t);
  }
  cmd_sleep_until_[ch] = std::max(wake, now + 1);
}

MemoryController::QueueView MemoryController::collect_eligible(
    const SoaQueue& queue, bool is_write_queue, Tick now, bool collect_orders,
    std::size_t& n_cands, std::size_t& n_orders) {
  // Two passes. The scan touches only the skinny arrays (visibility tick,
  // bank slot) and stores a queue index unconditionally, bumping the count
  // only when the entry qualifies — no data-dependent branches. The gather
  // then materialises full candidates for the few survivors. Scratch holds
  // buffer_entries slots and total queued requests never exceed that, so
  // the unconditional store is always in bounds.
  QueueView view;
  const std::size_t n = queue.size();
  const Tick* vis = queue.vis.data();
  const std::uint32_t* slot = queue.slot.data();
  const std::uint64_t* ord = queue.ord.data();
  std::uint32_t* idx = scratch_idx_.data();
  std::uint64_t* orders = scratch_orders_.data();
  const std::size_t base = n_cands;
  std::size_t nc = n_cands;
  std::size_t no = n_orders;
  bool any_visible = false;
  Tick min_future = kNeverTick;
  for (std::size_t i = 0; i < n; ++i) {
    const Tick v = vis[i];
    const bool visible = v <= now;
    any_visible |= visible;
    min_future = (!visible && v < min_future) ? v : min_future;
    if (collect_orders) {
      orders[no] = ord[i];
      no += visible ? std::size_t{1} : std::size_t{0};
    }
    idx[nc] = static_cast<std::uint32_t>(i);
    nc += (visible && slot_valid_[slot[i]] == 0) ? std::size_t{1} : std::size_t{0};
  }
  Cand* cands = scratch_cands_.data();
  for (std::size_t k = base; k < nc; ++k) {
    const std::uint32_t i = idx[k];
    cands[k] = Cand{i,
                    queue.core[i],
                    ord[i],
                    is_write_queue,
                    open_row_cache_[slot[i]] == queue.row[i],
                    queue.pf[i] != 0};
  }
  // Present this queue's candidates in arrival order — the order the legacy
  // append-and-erase storage enumerated them in. pick()'s demand filter
  // indexes positionally (see schedule_new), so enumeration order is
  // result-visible; arrival-sorting here keeps swap-removal storage order
  // invisible. Candidate counts are bounded by the free banks of one
  // channel, so a short insertion sort beats anything fancier.
  for (std::size_t i = base + 1; i < nc; ++i) {
    const Cand c = cands[i];
    std::size_t j = i;
    while (j > base && cands[j - 1].order > c.order) {
      cands[j] = cands[j - 1];
      --j;
    }
    cands[j] = c;
  }
  view.any_visible = any_visible;
  view.min_future_vis = min_future;
  n_cands = nc;
  n_orders = no;
  return view;
}

std::size_t MemoryController::filter_window(std::uint32_t window,
                                            std::size_t n_orders,
                                            std::size_t n_cands) {
  if (window == 0 || n_orders <= window) return n_cands;  // unbounded / fits
  // Threshold = the window-th smallest arrival order among visible requests.
  std::nth_element(scratch_orders_.begin(),
                   scratch_orders_.begin() + (window - 1),
                   scratch_orders_.begin() + static_cast<std::ptrdiff_t>(n_orders));
  const std::uint64_t threshold = scratch_orders_[window - 1];
  const bool hits_allowed = sch_hit_first_;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < n_cands; ++i) {
    const Cand& c = scratch_cands_[i];
    if ((hits_allowed && c.row_hit) || c.order <= threshold)
      scratch_cands_[keep++] = c;
  }
  return keep;
}

std::size_t MemoryController::pick(std::size_t n_cands) {
  MEMSCHED_ASSERT(n_cands > 0, "pick on empty candidate set");
  const Cand* cands = scratch_cands_.data();
  std::size_t n = n_cands;
  // Demand requests strictly outrank prefetches.
  bool any_demand = false;
  bool any_prefetch = false;
  for (std::size_t i = 0; i < n; ++i) {
    (cands[i].is_prefetch ? any_prefetch : any_demand) = true;
  }
  if (any_demand && any_prefetch) {
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!cands[i].is_prefetch) scratch_demand_[m++] = cands[i];
    }
    cands = scratch_demand_.data();
    n = m;
  }
  const bool hit_first = sch_hit_first_;
  const bool hit_above = hit_first && sch_hit_above_;

  // core_priority() is a pure function of prepare()'s snapshot (Scheduler
  // contract), but a virtual call — and the stages below query it once per
  // candidate per scan. Memoize per core for the duration of this pick.
  std::uint64_t prio_seen = 0;  // core_count_ <= 64 in all supported configs
  const auto prio_of = [&](CoreId core) {
    if ((prio_seen & (1ULL << core)) == 0) {
      scratch_prio_[core] = scheduler_.core_priority(core);
      prio_seen |= 1ULL << core;
    }
    return scratch_prio_[core];
  };

  // Stage 1 (optional): restrict to row hits when any exist.
  bool any_hit = false;
  if (hit_above) {
    for (std::size_t i = 0; i < n; ++i) any_hit |= cands[i].row_hit;
  }

  // Stage 2: best core priority among (possibly restricted) candidates.
  double best_prio = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const Cand& c = cands[i];
    if (hit_above && any_hit && !c.row_hit) continue;
    best_prio = std::max(best_prio, prio_of(c.core));
  }

  // Stage 3: resolve core ties. Random mode picks one core uniformly among
  // the tied ones (§3.2); age mode lets arrival order decide below.
  CoreId chosen_core = kInvalidCore;
  if (sch_random_tie_) {
    // Gather distinct cores achieving best_prio (core_count_ is small).
    std::uint64_t mask = 0;  // core_count_ <= 64 in all supported configs
    std::uint32_t tied = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Cand& c = cands[i];
      if (hit_above && any_hit && !c.row_hit) continue;
      if (prio_of(c.core) == best_prio && !(mask & (1ULL << c.core))) {
        mask |= 1ULL << c.core;
        ++tied;
      }
    }
    if (tied > 1) {
      std::uint64_t skip = rng_.below(tied);
      for (CoreId core = 0; core < core_count_; ++core) {
        if (mask & (1ULL << core)) {
          if (skip == 0) {
            chosen_core = core;
            break;
          }
          --skip;
        }
      }
    }
  }

  // Stage 4: among remaining candidates, (row hit, arrival order).
  std::size_t best = kNpos;
  for (std::size_t i = 0; i < n; ++i) {
    const Cand& c = cands[i];
    if (hit_above && any_hit && !c.row_hit) continue;
    if (prio_of(c.core) != best_prio) continue;
    if (chosen_core != kInvalidCore && c.core != chosen_core) continue;
    if (best == kNpos) {
      best = i;
      continue;
    }
    const Cand& bc = cands[best];
    if (hit_first && c.row_hit != bc.row_hit) {
      if (c.row_hit) best = i;
      continue;
    }
    if (c.order < bc.order) best = i;
  }
  MEMSCHED_ASSERT(best != kNpos, "no candidate selected");
  return best;
}

void MemoryController::start_transaction(Request req, RowState state, Tick now) {
  if (trace_sink_) trace_sink_(req, state, now);
  MC_AUDIT(on_schedule(req, state, now));
  const std::size_t idx = slot_index(req.dram.channel, req.dram.bank);
  std::uint8_t& predictor = open_predictor_[idx];
  switch (state) {
    case RowState::kHit:
      ++stats_.row_hits;
      if (predictor < 3) ++predictor;  // reward: leaving the row open paid off
      break;
    case RowState::kClosed:
      ++stats_.row_closed;
      break;
    case RowState::kConflict:
      ++stats_.row_conflicts;
      if (predictor > 0) --predictor;  // penalty: the open row was wrong
      break;
  }
  MEMSCHED_ASSERT(slot_valid_[idx] == 0, "double-booked bank slot");
  slot_valid_[idx] = 1;
  slot_phase_[idx] = state == RowState::kHit      ? Phase::kNeedCas
                     : state == RowState::kClosed ? Phase::kNeedActivate
                                                  : Phase::kNeedPrecharge;
  slot_req_[idx] = req;
  ch_inflight_mask_[req.dram.channel] |= 1u << req.dram.bank;
  cmd_sleep_until_[req.dram.channel] = 0;  // new in-flight command
  ++inflight_count_;
  if (epoch_len_ != 0) {
    ++interval_served_[req.core];
    if (streak_core_ == req.core) {
      ++streak_len_;
    } else {
      streak_core_ = req.core;
      streak_len_ = 1;
    }
  }
  scheduler_.on_served(req);
  ++stats_.sched_rounds;
}

void MemoryController::schedule_new(std::uint32_t ch, Tick now) {
  SoaQueue& ch_reads = read_q_[ch];
  SoaQueue& ch_writes = write_q_[ch];
  if (ch_reads.empty() && ch_writes.empty()) {
    sched_sleep_until_[ch] = kNeverTick;  // woken by the next enqueue
    return;
  }
  std::size_t n_cands = 0;
  std::size_t n_orders = 0;
  const std::uint32_t window = sch_window_;
  // Unbounded window (every thread-aware scheme): filter_window never reads
  // the visible orders, so don't collect them — the queue scan is the
  // hottest loop in the simulator.
  const bool collect_orders = window != 0;
  if (!sch_read_first_) {
    // Naive FCFS: reads and writes compete purely by arrival order.
    const QueueView vr =
        collect_eligible(ch_reads, false, now, collect_orders, n_cands, n_orders);
    const QueueView vw =
        collect_eligible(ch_writes, true, now, collect_orders, n_cands, n_orders);
    if (n_cands == 0) {
      // No visible request targets a free bank. That cannot change before an
      // enqueue, a freed slot or a drain flip (each resets the sleep) or the
      // earliest visibility expiry — so don't rescan until then.
      sched_sleep_until_[ch] = std::min(vr.min_future_vis, vw.min_future_vis);
      return;
    }
    n_cands = filter_window(window, n_orders, n_cands);
  } else {
    const bool primary_write = drain_mode_;
    SoaQueue& primary = primary_write ? ch_writes : ch_reads;
    SoaQueue& secondary = primary_write ? ch_reads : ch_writes;
    const QueueView vp =
        collect_eligible(primary, primary_write, now, collect_orders, n_cands, n_orders);
    const bool primary_none = n_cands == 0;  // pre-filter: zero eligible
    n_cands = filter_window(window, n_orders, n_cands);
    if (n_cands == 0) {
      // Under a bounded window, a fully blocked primary class stalls the
      // channel rather than letting the secondary class jump ahead.
      if (window != 0 && vp.any_visible) {
        // Sleepable only when the stall is for lack of *eligible* requests:
        // with zero candidates the window threshold and row states cannot
        // matter, so the outcome is frozen until a dirty event or until an
        // invisible request (possibly targeting a free bank) surfaces.
        if (primary_none) sched_sleep_until_[ch] = vp.min_future_vis;
        return;
      }
      n_orders = 0;
      const QueueView vs = collect_eligible(secondary, !primary_write, now,
                                            collect_orders, n_cands, n_orders);
      if (n_cands == 0) {
        // Reaching here implies the primary scan was empty too (a non-empty
        // primary only falls through under an unbounded window, which never
        // filters anything away).
        sched_sleep_until_[ch] = std::min(vp.min_future_vis, vs.min_future_vis);
        return;
      }
      n_cands = filter_window(window, n_orders, n_cands);
    }
  }
  if (n_cands == 0) return;

  const std::size_t winner = pick(n_cands);
  const Cand cand = scratch_cands_[winner];
  SoaQueue& queue = cand.from_write_queue ? ch_writes : ch_reads;
  const Request req = queue.rec[cand.queue_index];
  const RowState state = row_state_of(req);
  --(cand.from_write_queue ? write_total_ : read_total_);
  queue.swap_remove(cand.queue_index);
  if (cand.from_write_queue) update_drain_mode(now);
  start_transaction(req, state, now);
}

void MemoryController::deliver_completions(Tick now) {
  // Index-based walk: the read callback can re-enter enqueue_read(), whose
  // forwarding path inserts behind the head (new done > every delivered
  // done) and may reallocate the arena.
  while (comp_head_ < completions_.size() && completions_[comp_head_].done <= now) {
    const Completion c = completions_[comp_head_];
    ++comp_head_;
    MC_AUDIT(on_deliver(c.req, c.done, now));
    if (read_cb_) read_cb_(c.req, c.done);
  }
  if (comp_head_ == completions_.size()) {
    completions_.clear();
    comp_head_ = 0;
  } else if (comp_head_ >= 64) {
    // Bound the delivered prefix under sustained load: each compaction of
    // >= 64 consumed records moves only the (small) pending tail.
    completions_.erase(completions_.begin(),
                       completions_.begin() + static_cast<std::ptrdiff_t>(comp_head_));
    comp_head_ = 0;
  }
}

void MemoryController::resync_open_rows() {
  for (std::uint32_t ch = 0; ch < dram_.channel_count(); ++ch) {
    const dram::Channel& channel = dram_.channel(ch);
    for (std::uint32_t b = 0; b < banks_per_channel_; ++b) {
      const dram::Bank& bank = channel.bank(b);
      open_row_cache_[slot_index(ch, b)] =
          bank.row_open() ? bank.open_row() : kNoOpenRow;
    }
  }
  row_cache_stale_ = false;
}

void MemoryController::tick(Tick now) {
  // After load_state() the DRAM section (restored after ours) may have
  // changed bank state under us — re-read the open-row cache once.
  if (row_cache_stale_) resync_open_rows();
  maybe_roll_epochs(now);  // catch up past boundaries before anything else
  deliver_completions(now);

  scheduler_.prepare(make_snapshot(now));

  for (std::uint32_t ch = 0; ch < dram_.channel_count(); ++ch) {
    // Injected command-issue stall: the channel is frozen outright — no
    // command progress, no new transactions — until the stall window ends.
    if (fault_ != nullptr && fault_->stall_command(ch, now)) continue;
    bool refresh_blocking = false;
    if (!next_refresh_.empty() && now >= next_refresh_[ch]) {
      dram::Channel& channel = dram_.channel(ch);
      // Wait for in-flight transactions on this channel to drain, then
      // refresh all banks at once.
      const bool inflight_on_channel = ch_inflight_mask_[ch] != 0;
      if (!inflight_on_channel && channel.can_refresh(now)) {
        channel.issue_refresh(now);
        next_refresh_[ch] += dram_.timing().tREFI;
      } else {
        refresh_blocking = true;
        if (!inflight_on_channel) {
          // Close any row left open for a queued same-row request — that
          // request cannot be scheduled while refresh is pending, so the
          // open row would otherwise block the refresh forever.
          for (std::uint32_t b = 0; b < banks_per_channel_; ++b) {
            const std::size_t idx = slot_index(ch, b);
            if (open_row_cache_[idx] != kNoOpenRow && channel.can_precharge(b, now)) {
              channel.issue_precharge(b, now);
              open_row_cache_[idx] = kNoOpenRow;
              break;  // command bus consumed
            }
          }
        }
      }
    }
    if (now >= cmd_sleep_until_[ch]) advance_in_flight(ch, now);
    if (!refresh_blocking && now >= sched_sleep_until_[ch]) schedule_new(ch, now);
  }
}

Tick MemoryController::next_activity_tick(Tick now) const {
  if (fault_ != nullptr) return now + 1;
  Tick nxt = kNeverTick;
  const auto consider = [&nxt](Tick t) { nxt = std::min(nxt, t); };

  if (comp_head_ < completions_.size()) {
    // Sorted by done tick; the head is the earliest pending delivery.
    const Tick d = completions_[comp_head_].done;
    if (d <= now + 1) return now + 1;
    consider(d);
  }

  // Queue and command progress per channel: the sleep bounds maintained by
  // tick() are exactly "no transaction can start / no command can issue on
  // this channel before T" proofs. A dirty event (enqueue, freed slot, drain
  // flip, new transaction, restore) resets a bound to 0, which lands here as
  // the conservative now + 1; an untouched bound was established by a full
  // scan whose conclusion cannot change before the bound expires.
  for (std::uint32_t ch = 0; ch < dram_.channel_count(); ++ch) {
    if (!next_refresh_.empty()) {
      if (now >= next_refresh_[ch]) return now + 1;  // refresh machinery engaged
      consider(next_refresh_[ch]);
    }
    const Tick s = sched_sleep_until_[ch];
    const Tick c = cmd_sleep_until_[ch];
    if (s <= now + 1 || c <= now + 1) return now + 1;
    consider(std::min(s, c));
  }
  return nxt == kNeverTick ? kNeverTick : std::max(nxt, now + 1);
}

void MemoryController::reset_stats() {
  stats_ = ControllerStats{};
  stats_.core_read_latency_cpu.resize(core_count_);
  stats_.core_reads.assign(core_count_, 0);
  stats_.core_writes.assign(core_count_, 0);
}

bool MemoryController::idle() const {
  return read_total_ == 0 && write_total_ == 0 && inflight_count_ == 0 &&
         completions_pending() == 0;
}

namespace {

/// A request, wherever the controller's section lists one.
template <class Req, class Io>
void request_fields(Req& q, Io& io) {
  io(q.id);
  io(q.core);
  io(q.line_addr);
  io(q.is_write);
  io(q.is_prefetch);
  io(q.dram.channel);
  io(q.dram.bank);
  io(q.dram.row);
  io(q.dram.col_line);
  io(q.enqueue_tick);
  io(q.visible_tick);
  io(q.order);
}

}  // namespace

template <class Self, class Io>
void MemoryController::fields(Self& self, Io& io) {
  constexpr bool kSaving = std::is_same_v<Io, ckpt::Writer>;
  io(self.rng_);
  // Each class's queues are one list across channels in storage order
  // (swap-removal order, which round-trips exactly), headed by the class
  // total; loading re-splits the list by channel.
  const auto queues = [&](auto& per_channel, std::uint64_t total) {
    io(total);
    if constexpr (kSaving) {
      for (const SoaQueue& q : per_channel)
        for (const Request& req : q.rec) request_fields(req, io);
    } else {
      for (SoaQueue& q : per_channel) q.clear();
      for (; total > 0; --total) {
        Request req;
        request_fields(req, io);
        const auto slot = self.slot_index(req.dram.channel, req.dram.bank);
        per_channel[req.dram.channel].push(req, static_cast<std::uint32_t>(slot));
      }
    }
  };
  queues(self.read_q_, self.read_total_);
  queues(self.write_q_, self.write_total_);
  io.count(self.slot_valid_.size(), "controller slot count");
  for (std::size_t s = 0; s < self.slot_valid_.size(); ++s) {
    io(self.slot_valid_[s]);
    io(self.slot_phase_[s]);
    if (self.slot_valid_[s] != 0) request_fields(self.slot_req_[s], io);
  }
  // The undelivered completions in ascending done order; loading drops the
  // delivered prefix.
  const auto completion = [&](auto& c) {
    io(c.done);
    request_fields(c.req, io);
  };
  if constexpr (kSaving) {
    io.seq(std::span(self.completions_).subspan(self.comp_head_), completion);
  } else {
    self.comp_head_ = 0;
    io.seq(self.completions_, completion);
  }
  io.count(self.pending_reads_.size(), "controller core count");
  for (auto& v : self.pending_reads_) io(v);
  for (auto& v : self.pending_writes_) io(v);
  io.count(self.open_predictor_.size(), "controller predictor size");
  for (auto& v : self.open_predictor_) io(v);
  io.count(self.next_refresh_.size(), "controller refresh vector");
  for (auto& t : self.next_refresh_) io(t);
  io(self.occupied_);
  io(self.inflight_count_);
  io(self.drain_mode_);
  io(self.next_id_);
  io(self.next_order_);
  // Statistics (measurement may already be under way when we checkpoint).
  io(self.stats_.reads_served);
  io(self.stats_.writes_served);
  io(self.stats_.prefetch_reads);
  io(self.stats_.read_forwards);
  io(self.stats_.write_merges);
  io(self.stats_.row_hits);
  io(self.stats_.row_closed);
  io(self.stats_.row_conflicts);
  io(self.stats_.drain_entries);
  io(self.stats_.sched_rounds);
  io(self.stats_.read_latency_cpu);
  io(self.stats_.read_latency_hist);
  io.seq(self.stats_.core_read_latency_cpu, [&](auto& st) { io(st); });
  io(self.stats_.core_reads);
  io(self.stats_.core_writes);
  // Epoch/interval bookkeeping (inert but well-defined when epoch_len_ == 0).
  io(self.next_epoch_);
  io(self.epoch_index_);
  io.count(self.interval_served_.size(), "controller interval-counter size");
  for (std::size_t i = 0; i < self.interval_served_.size(); ++i) {
    io(self.interval_served_[i]);
    io(self.interval_arrivals_[i]);
  }
  io(self.streak_core_);
  io(self.streak_len_);
}

void MemoryController::save_state(ckpt::Writer& w) const { fields(*this, w); }

void MemoryController::load_state(ckpt::Reader& r) {
  fields(*this, r);
  rebuild_derived_state();
}

void MemoryController::rebuild_derived_state() {
  read_total_ = 0;
  for (const SoaQueue& q : read_q_) read_total_ += static_cast<std::uint32_t>(q.size());
  write_total_ = 0;
  for (const SoaQueue& q : write_q_) write_total_ += static_cast<std::uint32_t>(q.size());
  std::fill(sched_sleep_until_.begin(), sched_sleep_until_.end(), Tick{0});
  std::fill(cmd_sleep_until_.begin(), cmd_sleep_until_.end(), Tick{0});
  std::fill(ch_inflight_mask_.begin(), ch_inflight_mask_.end(), 0);
  for (std::size_t s = 0; s < slot_valid_.size(); ++s) {
    if (slot_valid_[s] != 0) {
      ch_inflight_mask_[s / banks_per_channel_] |=
          1u << (s % banks_per_channel_);
    }
  }
  // The DRAM section restores after ours — re-read the open rows lazily at
  // the next tick().
  row_cache_stale_ = true;
}

std::string MemoryController::dump_state(Tick now) const {
  char line[192];
  std::string out;
  const auto append = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof line, fmt, args...);
    out += line;
  };
  append("controller state at tick %llu:\n", static_cast<unsigned long long>(now));
  append("  occupied %u/%u, reads queued %zu, writes queued %zu, in-flight %u, "
         "completions %zu, drain %s\n",
         occupied_, cfg_.buffer_entries, static_cast<std::size_t>(read_total_),
         static_cast<std::size_t>(write_total_), inflight_count_,
         completions_pending(), drain_mode_ ? "on" : "off");
  append("  served since stats reset: %llu reads, %llu writes, %llu forwards\n",
         static_cast<unsigned long long>(stats_.reads_served),
         static_cast<unsigned long long>(stats_.writes_served),
         static_cast<unsigned long long>(stats_.read_forwards));
  out += "  per-core pending (reads/writes):";
  for (std::uint32_t c = 0; c < core_count_; ++c) {
    append(" c%u=%u/%u", c, pending_reads_[c], pending_writes_[c]);
  }
  out += '\n';
  const auto dump_oldest = [&](const std::vector<SoaQueue>& qs, const char* label) {
    const Request* oldest = nullptr;
    for (const SoaQueue& q : qs) {
      for (const Request& r : q.rec) {
        if (oldest == nullptr || r.order < oldest->order) oldest = &r;
      }
    }
    if (oldest == nullptr) return;
    append("  oldest %s: id %llu core %u line 0x%llx ch %u bank %u row %llu, "
           "enqueued tick %llu (age %llu), visible %llu\n",
           label, static_cast<unsigned long long>(oldest->id), oldest->core,
           static_cast<unsigned long long>(oldest->line_addr), oldest->dram.channel,
           oldest->dram.bank, static_cast<unsigned long long>(oldest->dram.row),
           static_cast<unsigned long long>(oldest->enqueue_tick),
           static_cast<unsigned long long>(now - oldest->enqueue_tick),
           static_cast<unsigned long long>(oldest->visible_tick));
  };
  dump_oldest(read_q_, "read");
  dump_oldest(write_q_, "write");
  for (std::size_t s = 0; s < slot_valid_.size(); ++s) {
    if (slot_valid_[s] == 0) continue;
    const Request& r = slot_req_[s];
    append("  in-flight slot %zu: id %llu core %u %s phase %d ch %u bank %u\n", s,
           static_cast<unsigned long long>(r.id), r.core, r.is_write ? "write" : "read",
           static_cast<int>(slot_phase_[s]), r.dram.channel, r.dram.bank);
  }
  return out;
}

}  // namespace memsched::mc
