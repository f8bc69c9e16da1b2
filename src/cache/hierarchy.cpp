#include "cache/hierarchy.hpp"

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace memsched::cache {

CacheHierarchy::CacheHierarchy(const HierarchyConfig& cfg, std::uint32_t core_count,
                               mc::MemoryController& controller)
    : cfg_(cfg),
      controller_(controller),
      l2_(cfg.l2),
      l2_mshr_(cfg.l2_mshr_entries),
      prefetcher_(cfg.prefetch, core_count) {
  MEMSCHED_ASSERT(core_count > 0, "hierarchy needs at least one core");
  l1i_.reserve(core_count);
  l1d_.reserve(core_count);
  for (std::uint32_t c = 0; c < core_count; ++c) {
    l1i_.emplace_back(cfg.l1i);
    l1d_.emplace_back(cfg.l1d);
  }
  controller_.set_read_callback(
      [this](const mc::Request& req, Tick done) { on_dram_fill(req, done); });
}

AccessReply CacheHierarchy::l2_access(CoreId core, Addr line, bool is_write,
                                      CpuCycle now_cpu, std::uint64_t waiter_token) {
  // A fill already in flight for this line? Merge into its MSHR entry.
  if (MshrEntry* entry = l2_mshr_.find(line)) {
    if (entry->prefetch) {
      // A demand access caught up with an in-flight prefetch: count it
      // useful and hand the entry over to demand accounting.
      entry->prefetch = false;
      ++pf_useful_;
    }
    if (waiter_token != kNoWaiterToken) entry->waiters.push_back(waiter_token);
    l2_mshr_.count_merge();
    return {.outcome = AccessOutcome::kMiss, .done_cpu = 0};
  }

  bool was_pf = false;
  if (l2_.try_hit(line, is_write, &was_pf)) {
    pf_useful_ += was_pf;
    return {.outcome = AccessOutcome::kHitL2,
            .done_cpu = now_cpu + l2_.config().hit_latency_cpu};
  }

  // True L2 miss: needs an MSHR entry to track the DRAM fill. Check the
  // resource *before* mutating any cache state so a kRetry is side-effect
  // free.
  if (l2_mshr_.full()) return {.outcome = AccessOutcome::kRetry, .done_cpu = 0};

  const AccessResult r = l2_.access(line, is_write);
  if (r.writeback_line) {
    writeback_q_.emplace_back(core, *r.writeback_line);
    ++wb_enqueued_;
  }
  MshrEntry* entry = l2_mshr_.allocate(line, core);
  MEMSCHED_ASSERT(entry != nullptr, "MSHR allocation failed despite capacity check");
  if (waiter_token != kNoWaiterToken) entry->waiters.push_back(waiter_token);
  issue_prefetches(core, line);
  return {.outcome = AccessOutcome::kMiss, .done_cpu = 0};
}

void CacheHierarchy::issue_prefetches(CoreId core, Addr miss_line) {
  if (!cfg_.prefetch.enabled) return;
  for (const Addr target : prefetcher_.train(core, miss_line)) {
    if (l2_mshr_.full()) break;
    if (l2_.probe(target) || l2_mshr_.find(target) != nullptr) continue;
    // Fill-at-access convention: the line enters L2 now, tagged prefetched;
    // the MSHR entry carries the fill until data actually arrives.
    const AccessResult r = l2_.access(target, false);
    if (r.writeback_line) {
      writeback_q_.emplace_back(core, *r.writeback_line);
      ++wb_enqueued_;
    }
    l2_.mark_prefetched(target);
    MshrEntry* entry = l2_mshr_.allocate(target, core);
    MEMSCHED_ASSERT(entry != nullptr, "prefetch MSHR allocation failed");
    entry->prefetch = true;
    ++pf_issued_;
  }
}

AccessReply CacheHierarchy::load(CoreId core, Addr addr, CpuCycle now_cpu,
                                 std::uint64_t waiter_token) {
  const Addr line = line_base(addr);
  SetAssocCache& l1 = l1d_[core];
  if (l1.try_hit(line, false)) {
    return {.outcome = AccessOutcome::kHitL1,
            .done_cpu = now_cpu + l1.config().hit_latency_cpu};
  }
  const AccessReply reply = l2_access(core, line, false, now_cpu, waiter_token);
  if (reply.outcome == AccessOutcome::kRetry) return reply;
  // Commit the L1 fill; a dirty L1 victim is written back into L2.
  const AccessResult r1 = l1.access(line, false);
  if (r1.writeback_line) l2_insert_writeback(core, *r1.writeback_line);
  return reply;
}

AccessOutcome CacheHierarchy::store(CoreId core, Addr addr, std::uint64_t waiter_token) {
  const Addr line = line_base(addr);
  SetAssocCache& l1 = l1d_[core];
  if (l1.try_hit(line, true)) return AccessOutcome::kHitL1;
  // Write-allocate: the line is fetched from below like a load; the store
  // queue holds the entry until the fill returns (waiter_token, if any).
  const AccessReply reply = l2_access(core, line, false, 0, waiter_token);
  if (reply.outcome == AccessOutcome::kRetry) return reply.outcome;
  const AccessResult r1 = l1.access(line, true);
  if (r1.writeback_line) l2_insert_writeback(core, *r1.writeback_line);
  return reply.outcome;
}

AccessReply CacheHierarchy::ifetch(CoreId core, Addr addr, CpuCycle now_cpu,
                                   std::uint64_t waiter_token) {
  const Addr line = line_base(addr);
  SetAssocCache& l1 = l1i_[core];
  if (l1.try_hit(line, false)) {
    return {.outcome = AccessOutcome::kHitL1,
            .done_cpu = now_cpu + l1.config().hit_latency_cpu};
  }
  const AccessReply reply = l2_access(core, line, false, now_cpu, waiter_token);
  if (reply.outcome == AccessOutcome::kRetry) return reply;
  l1.access(line, false);  // instruction lines are never dirty
  return reply;
}

void CacheHierarchy::functional_fill_l2(std::span<const Addr> lines) {
  // Keep L2 recency/contents warm the way an L1 miss would. Victims are
  // dropped at both levels (warm path), which slightly under-states L2
  // dirtiness across a fast-forward — the per-interval detailed warmup
  // re-establishes the write-back pipeline before anything is measured.
  for (const Addr line : lines) l2_.warm_insert(line, /*dirty=*/false);
}

void CacheHierarchy::l2_insert_writeback(CoreId core, Addr victim_line) {
  // Dirty L1 victim lands in L2 (allocating if it has since been evicted —
  // non-inclusive hierarchy); a dirty L2 victim continues to DRAM.
  const AccessResult r = l2_.access(victim_line, true);
  if (r.writeback_line) {
    writeback_q_.emplace_back(core, *r.writeback_line);
    ++wb_enqueued_;
  }
}

void CacheHierarchy::tick(Tick now) {
  // Dispatch MSHR fills the controller previously back-pressured.
  l2_mshr_.for_each_undispatched([&](const MshrEntry& e) {
    return controller_.enqueue_read(e.requester, e.line_addr, now, e.prefetch);
  });
  // Drain writebacks while the controller accepts them.
  while (!writeback_q_.empty()) {
    const auto& [core, line] = writeback_q_.front();
    if (!controller_.enqueue_write(core, line, now)) break;
    writeback_q_.pop_front();
  }
}

void CacheHierarchy::on_dram_fill(const mc::Request& req, Tick done_tick) {
  scratch_waiters_.clear();
  if (!l2_mshr_.release(req.line_addr, scratch_waiters_)) {
    // A read the hierarchy never tracked (e.g. issued directly by a test
    // driving the controller); nothing to wake.
    return;
  }
  const CpuCycle done_cpu = done_tick * cfg_.cpu_ratio + cfg_.fill_return_cpu;
  if (fill_cb_) {
    for (const std::uint64_t token : scratch_waiters_) fill_cb_(token, done_cpu);
  }
}

void CacheHierarchy::warm(const std::vector<WarmSpec>& specs, std::uint64_t seed) {
  MEMSCHED_ASSERT(specs.size() == l1d_.size(), "one WarmSpec per core");
  util::Xoshiro256 rng(seed ^ 0x5aa5c0deULL);

  // Phase 1: fill the shared L2 with random footprint lines, round-robin
  // across cores so each gets a proportional share. 3x the line count gives
  // LRU enough churn to populate every way of every set.
  const std::uint64_t l2_lines = cfg_.l2.size_bytes / kLineBytes;
  const auto cores = static_cast<std::uint32_t>(specs.size());
  for (std::uint64_t i = 0; i < 3 * l2_lines; ++i) {
    const WarmSpec& w = specs[i % cores];
    if (w.footprint_bytes < kLineBytes) continue;
    const std::uint64_t lines = w.footprint_bytes / kLineBytes;
    const Addr line = w.footprint_base + rng.below(lines) * kLineBytes;
    l2_.warm_insert(line, rng.chance(w.dirty_share));
  }

  // Phase 2: per-core hot and code sets, most-recently-used, into both
  // levels (so they survive phase-1 churn and L1 misses on them hit L2).
  for (std::uint32_t c = 0; c < cores; ++c) {
    const WarmSpec& w = specs[c];
    for (std::uint64_t off = 0; off + kLineBytes <= w.hot_bytes; off += kLineBytes) {
      const Addr line = w.hot_base + off;
      const bool dirty = rng.chance(w.hot_dirty_share);
      l2_.warm_insert(line, false);
      l1d_[c].warm_insert(line, dirty);
    }
    for (std::uint64_t off = 0; off + kLineBytes <= w.code_bytes; off += kLineBytes) {
      const Addr line = w.code_base + off;
      l2_.warm_insert(line, false);
      l1i_[c].warm_insert(line, false);
    }
  }
}

void CacheHierarchy::reset_stats() {
  for (auto& c : l1i_) c.reset_stats();
  for (auto& c : l1d_) c.reset_stats();
  l2_.reset_stats();
}

void CacheHierarchy::reset() {
  prefetcher_.reset();
  pf_issued_ = 0;
  pf_useful_ = 0;
  for (auto& c : l1i_) c.reset();
  for (auto& c : l1d_) c.reset();
  l2_.reset();
  l2_mshr_.reset();
  writeback_q_.clear();
  wb_enqueued_ = 0;
}

template <class Self, class Io>
void CacheHierarchy::fields(Self& self, Io& io) {
  io.count(self.l1i_.size(), "hierarchy core count");
  for (auto& c : self.l1i_) io.nested(c);
  for (auto& c : self.l1d_) io.nested(c);
  io.nested(self.l2_);
  io.nested(self.l2_mshr_);
  io.nested(self.prefetcher_);
  io(self.pf_issued_);
  io(self.pf_useful_);
  io.seq(self.writeback_q_, [&](auto& wb) {
    io(wb.first);
    io(wb.second);
  });
  io(self.wb_enqueued_);
}

void CacheHierarchy::save_state(ckpt::Writer& w) const { fields(*this, w); }

void CacheHierarchy::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::cache
