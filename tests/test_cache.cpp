// Unit tests for src/cache: set-associative cache, MSHR file, hierarchy.
#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/mshr.hpp"
#include "dram/dram_system.hpp"
#include "mc/controller.hpp"
#include "sched/policies.hpp"
#include "util/rng.hpp"

namespace memsched::cache {
namespace {

CacheConfig tiny_cache() {
  // 4 sets x 2 ways x 64 B = 512 B: easy to exercise eviction.
  return CacheConfig{.size_bytes = 512, .ways = 2, .line_bytes = 64,
                     .hit_latency_cpu = 3, .name = "tiny"};
}

Addr line_in_set(std::uint64_t set, std::uint64_t tag, std::uint64_t sets = 4) {
  return (tag * sets + set) * 64;
}

// --------------------------------------------------------------- cache ----

TEST(Cache, MissThenHit) {
  SetAssocCache c(tiny_cache());
  EXPECT_FALSE(c.access(0x0, false).hit);
  EXPECT_TRUE(c.access(0x0, false).hit);
  EXPECT_TRUE(c.access(0x3f, false).hit);  // same line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEvictsOldest) {
  SetAssocCache c(tiny_cache());
  const Addr a = line_in_set(0, 1), b = line_in_set(0, 2), d = line_in_set(0, 3);
  c.access(a, false);
  c.access(b, false);
  c.access(a, false);       // a is now MRU
  c.access(d, false);       // evicts b (LRU)
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
  EXPECT_TRUE(c.probe(d));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, DirtyEvictionReportsVictimLineAddress) {
  SetAssocCache c(tiny_cache());
  const Addr a = line_in_set(2, 1);
  c.access(a, true);  // dirty
  c.access(line_in_set(2, 2), false);
  const AccessResult r = c.access(line_in_set(2, 3), false);  // evicts a
  ASSERT_TRUE(r.writeback_line.has_value());
  EXPECT_EQ(*r.writeback_line, a);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  SetAssocCache c(tiny_cache());
  c.access(line_in_set(1, 1), false);
  c.access(line_in_set(1, 2), false);
  const AccessResult r = c.access(line_in_set(1, 3), false);
  EXPECT_FALSE(r.writeback_line.has_value());
}

TEST(Cache, WriteHitMarksDirty) {
  SetAssocCache c(tiny_cache());
  c.access(line_in_set(0, 1), false);
  c.access(line_in_set(0, 1), true);  // hit, dirties
  c.access(line_in_set(0, 2), false);
  const AccessResult r = c.access(line_in_set(0, 3), false);
  ASSERT_TRUE(r.writeback_line.has_value());
}

TEST(Cache, ProbeDoesNotTouchState) {
  SetAssocCache c(tiny_cache());
  c.access(line_in_set(0, 1), false);
  c.access(line_in_set(0, 2), false);
  // Many probes of line 1 must not refresh its LRU position.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(c.probe(line_in_set(0, 1)));
  EXPECT_EQ(c.stats().hits, 0u);
  // Access line 2 (making 1 LRU), then insert line 3: 1 must be evicted.
  c.access(line_in_set(0, 2), false);
  c.access(line_in_set(0, 3), false);
  EXPECT_FALSE(c.probe(line_in_set(0, 1)));
}

TEST(Cache, InvalidateReportsDirtiness) {
  SetAssocCache c(tiny_cache());
  c.access(0x0, true);
  c.access(0x40, false);
  EXPECT_TRUE(c.invalidate(0x0));
  EXPECT_FALSE(c.invalidate(0x40));
  EXPECT_FALSE(c.invalidate(0x8000));  // absent
  EXPECT_FALSE(c.probe(0x0));
}

TEST(Cache, WarmInsertNoStatsNoVictimEscape) {
  SetAssocCache c(tiny_cache());
  for (std::uint64_t t = 1; t <= 5; ++t) c.warm_insert(line_in_set(0, t), true);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_EQ(c.stats().writebacks, 0u);
  // The two most recent survive.
  EXPECT_TRUE(c.probe(line_in_set(0, 5)));
  EXPECT_TRUE(c.probe(line_in_set(0, 4)));
  EXPECT_FALSE(c.probe(line_in_set(0, 1)));
}

TEST(Cache, ResetStatsKeepsContents) {
  SetAssocCache c(tiny_cache());
  c.access(0x0, false);
  c.reset_stats();
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_TRUE(c.probe(0x0));
}

TEST(Cache, Table1Geometry) {
  const HierarchyConfig h;
  EXPECT_EQ(CacheConfig(h.l1d).sets(), 512u);
  EXPECT_EQ(CacheConfig(h.l2).sets(), 16384u);
}

// ---------------------------------------------------------------- MSHR ----

TEST(Mshr, AllocateFindRelease) {
  MshrFile m(4);
  EXPECT_EQ(m.capacity(), 4u);
  MshrEntry* e = m.allocate(0x1000, 2);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->requester, 2u);
  EXPECT_EQ(m.find(0x1000), e);
  EXPECT_EQ(m.find(0x2000), nullptr);
  std::vector<std::uint64_t> waiters;
  EXPECT_TRUE(m.release(0x1000, waiters));
  EXPECT_EQ(m.in_use(), 0u);
  EXPECT_FALSE(m.release(0x1000, waiters));
}

TEST(Mshr, RejectsDuplicateAndFull) {
  MshrFile m(2);
  ASSERT_NE(m.allocate(0x40, 0), nullptr);
  EXPECT_EQ(m.allocate(0x40, 0), nullptr);  // duplicate
  ASSERT_NE(m.allocate(0x80, 0), nullptr);
  EXPECT_TRUE(m.full());
  EXPECT_EQ(m.allocate(0xc0, 0), nullptr);
}

TEST(Mshr, ReleaseHandsBackWaiters) {
  MshrFile m(2);
  MshrEntry* e = m.allocate(0x40, 1);
  e->waiters.push_back(11);
  e->waiters.push_back(22);
  std::vector<std::uint64_t> waiters{7};
  ASSERT_TRUE(m.release(0x40, waiters));
  EXPECT_EQ(waiters, (std::vector<std::uint64_t>{7, 11, 22}));
}

TEST(Mshr, UndispatchedIteration) {
  MshrFile m(4);
  m.allocate(0x40, 0);
  m.allocate(0x80, 0);
  // The controller accepts only 0x80; 0x40 stays in the retry set.
  m.for_each_undispatched([](const MshrEntry& u) { return u.line_addr == 0x80u; });
  EXPECT_TRUE(m.find(0x80)->dispatched);
  int seen = 0;
  m.for_each_undispatched([&](const MshrEntry& u) {
    ++seen;
    EXPECT_EQ(u.line_addr, 0x40u);
    return true;
  });
  EXPECT_EQ(seen, 1);
  EXPECT_FALSE(m.any_undispatched());
}

// ---------------------------------------------------------- prefetcher ----

TEST(Prefetcher, DisabledEmitsNothing) {
  StreamPrefetcher pf(PrefetchConfig{.enabled = false}, 1);
  EXPECT_TRUE(pf.train(0, 0x0).empty());
  EXPECT_TRUE(pf.train(0, 0x40).empty());
}

TEST(Prefetcher, DetectsSequentialStream) {
  StreamPrefetcher pf(PrefetchConfig{.enabled = true, .degree = 2}, 1);
  EXPECT_TRUE(pf.train(0, 0x1000).empty());  // allocation miss
  const auto targets = pf.train(0, 0x1040);  // extends the stream
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], 0x1080u);
  EXPECT_EQ(targets[1], 0x10c0u);
  EXPECT_EQ(pf.triggers(), 1u);
}

TEST(Prefetcher, RandomMissesNeverTrigger) {
  StreamPrefetcher pf(PrefetchConfig{.enabled = true}, 1);
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(pf.train(0, rng.below(1u << 24) * 64).empty());
  }
  EXPECT_EQ(pf.triggers(), 0u);
}

TEST(Prefetcher, TracksInterleavedStreamsPerCore) {
  StreamPrefetcher pf(PrefetchConfig{.enabled = true, .degree = 1}, 2);
  pf.train(0, 0x1000);
  pf.train(1, 0x8000);
  // Core 1's stream must not be confused with core 0's.
  EXPECT_TRUE(pf.train(1, 0x1040).empty());
  EXPECT_FALSE(pf.train(0, 0x1040).empty());
  EXPECT_FALSE(pf.train(1, 0x8040).empty());
}

TEST(Prefetcher, MultipleStreamsPerCore) {
  StreamPrefetcher pf(PrefetchConfig{.enabled = true, .degree = 1, .table_entries = 4}, 1);
  pf.train(0, 0x1000);
  pf.train(0, 0x20000);
  EXPECT_FALSE(pf.train(0, 0x1040).empty());
  EXPECT_FALSE(pf.train(0, 0x20040).empty());
}

TEST(Prefetcher, ResetForgetsStreams) {
  StreamPrefetcher pf(PrefetchConfig{.enabled = true, .degree = 1}, 1);
  pf.train(0, 0x1000);
  pf.reset();
  EXPECT_TRUE(pf.train(0, 0x1040).empty());  // stream forgotten
}

// ----------------------------------------------------------- hierarchy ----

struct Stack {
  dram::DramSystem dram{dram::Timing{}, dram::Organization{}, dram::Interleave::kHybrid};
  sched::HitFirstReadFirstScheduler sched;
  mc::MemoryController mcu;
  CacheHierarchy hier;
  std::vector<std::pair<std::uint64_t, CpuCycle>> fills;
  Tick now = 0;

  explicit Stack(HierarchyConfig cfg = {}, std::uint32_t cores = 2)
      : mcu(dram, sched, mc::ControllerConfig{}, cores, 1), hier(cfg, cores, mcu) {
    hier.set_fill_callback([this](std::uint64_t token, CpuCycle done) {
      fills.emplace_back(token, done);
    });
  }
  void drain(Tick limit = 50'000) {
    while ((!mcu.idle() || !hier.idle()) && limit--) {
      hier.tick(now);
      mcu.tick(now);
      ++now;
    }
    ASSERT_TRUE(mcu.idle() && hier.idle());
  }
};

TEST(Hierarchy, L1HitHasL1Latency) {
  Stack s;
  s.hier.load(0, 0x1000, 0, 1);  // install (goes to DRAM)
  s.drain();
  const AccessReply r = s.hier.load(0, 0x1000, 100, 2);
  EXPECT_EQ(r.outcome, AccessOutcome::kHitL1);
  EXPECT_EQ(r.done_cpu, 100u + s.hier.l1d(0).config().hit_latency_cpu);
}

TEST(Hierarchy, L2HitAfterOtherCoreFetched) {
  Stack s;
  s.hier.load(0, 0x2000, 0, 1);
  s.drain();
  // Core 1 misses its own L1 but hits shared L2.
  const AccessReply r = s.hier.load(1, 0x2000, 50, 2);
  EXPECT_EQ(r.outcome, AccessOutcome::kHitL2);
  EXPECT_EQ(r.done_cpu, 50u + s.hier.l2().config().hit_latency_cpu);
}

TEST(Hierarchy, MissFillsAndWakesWaiter) {
  Stack s;
  const AccessReply r = s.hier.load(0, 0x3000, 0, 42);
  EXPECT_EQ(r.outcome, AccessOutcome::kMiss);
  EXPECT_EQ(s.hier.fills_in_flight(), 1u);
  s.drain();
  ASSERT_EQ(s.fills.size(), 1u);
  EXPECT_EQ(s.fills[0].first, 42u);
  EXPECT_GT(s.fills[0].second, 0u);
}

TEST(Hierarchy, SecondaryMissMerges) {
  Stack s;
  EXPECT_EQ(s.hier.load(0, 0x4000, 0, 1).outcome, AccessOutcome::kMiss);
  EXPECT_EQ(s.hier.load(1, 0x4010, 0, 2).outcome, AccessOutcome::kMiss);  // same line
  EXPECT_EQ(s.hier.fills_in_flight(), 1u);
  EXPECT_EQ(s.hier.l2_mshr().merges(), 1u);
  s.drain();
  ASSERT_EQ(s.fills.size(), 2u);  // both waiters woken by one fill
}

TEST(Hierarchy, StoreMissWriteAllocatesWithoutWaiter) {
  Stack s;
  EXPECT_EQ(s.hier.store(0, 0x5000), AccessOutcome::kMiss);
  EXPECT_EQ(s.hier.fills_in_flight(), 1u);
  s.drain();
  EXPECT_TRUE(s.fills.empty());
  // The line is now present and dirty in L1.
  EXPECT_EQ(s.hier.load(0, 0x5000, 0, 9).outcome, AccessOutcome::kHitL1);
}

TEST(Hierarchy, StoreOutcomeSaysWhereTheLineWas) {
  // kMiss holds exactly when the line's fill is in flight after the call,
  // and only then is the waiter token registered: the core model counts a
  // store-queue entry on it.
  Stack s;
  EXPECT_EQ(s.hier.store(0, 0x6000, 7), AccessOutcome::kMiss);   // allocates the fill
  EXPECT_EQ(s.hier.store(1, 0x6008, 8), AccessOutcome::kMiss);   // merges into it
  EXPECT_NE(s.hier.l2_mshr().find(0x6000), nullptr);
  EXPECT_EQ(s.hier.store(0, 0x6010, 9), AccessOutcome::kHitL1);  // write-allocated above
  s.drain();
  ASSERT_EQ(s.fills.size(), 2u);
  EXPECT_EQ(s.fills[0].first, 7u);
  EXPECT_EQ(s.fills[1].first, 8u);

  s.hier.load(1, 0x7000, 0, 10);  // into L2 and core 1's L1 only
  s.drain();
  s.fills.clear();
  EXPECT_EQ(s.hier.store(0, 0x7000, 11), AccessOutcome::kHitL2);
  EXPECT_EQ(s.hier.l2_mshr().find(0x7000), nullptr);
  s.drain();
  EXPECT_TRUE(s.fills.empty());
}

TEST(Hierarchy, BackPressureWhenL2MshrFull) {
  HierarchyConfig cfg;
  cfg.l2_mshr_entries = 2;
  Stack s(cfg);
  EXPECT_EQ(s.hier.load(0, 64 * 100, 0, 1).outcome, AccessOutcome::kMiss);
  EXPECT_EQ(s.hier.load(0, 64 * 200, 0, 2).outcome, AccessOutcome::kMiss);
  EXPECT_EQ(s.hier.load(0, 64 * 300, 0, 3).outcome, AccessOutcome::kRetry);
  EXPECT_EQ(s.hier.store(0, 64 * 400), AccessOutcome::kRetry);
  s.drain();
  EXPECT_EQ(s.fills.size(), 2u);
}

TEST(Hierarchy, DirtyL1VictimFlowsToL2ThenDram) {
  // Tiny L1 so victims happen fast; default L2.
  HierarchyConfig cfg;
  cfg.l1d = CacheConfig{.size_bytes = 128, .ways = 1, .line_bytes = 64,
                        .hit_latency_cpu = 3, .name = "L1D"};
  Stack s(cfg, 1);
  // Dirty a line, then evict it from L1 by touching its set conflict.
  EXPECT_EQ(s.hier.store(0, 0x0), AccessOutcome::kMiss);  // set 0, dirty
  s.hier.load(0, 0x80, 0, 1);                // set 0 conflict -> victim 0x0 to L2
  s.drain();
  // L2 now holds 0x0 dirty; storm the L2 set to force a DRAM writeback.
  // (simpler: verify L2 has it and a later L2 eviction produces a write)
  EXPECT_TRUE(s.hier.l2().probe(0x0));
}

TEST(Hierarchy, WritebackQueueDrainsToController) {
  Stack s;
  // Manufacture a dirty L2 line via warm() and evict it.
  std::vector<WarmSpec> specs(2);
  specs[0].footprint_base = 0;
  specs[0].footprint_bytes = 64ull << 20;
  specs[0].dirty_share = 1.0;  // everything dirty
  s.hier.warm(specs, 7);
  // Touch fresh lines until some dirty victim is evicted from L2.
  std::uint64_t token = 100;
  Addr a = 256ull << 20;
  while (s.mcu.stats().writes_served == 0 && token < 100 + 40'000) {
    if (s.hier.load(0, a, 0, token).outcome != AccessOutcome::kRetry) a += 64;
    ++token;
    s.hier.tick(s.now);
    s.mcu.tick(s.now);
    ++s.now;
  }
  EXPECT_GT(s.mcu.stats().writes_served, 0u);
}

TEST(Hierarchy, WarmFillsCaches) {
  Stack s;
  std::vector<WarmSpec> specs(2);
  specs[0].footprint_base = 0;
  specs[0].footprint_bytes = 64ull << 20;
  specs[0].dirty_share = 0.3;
  specs[0].hot_base = 64ull << 20;
  specs[0].hot_bytes = 32 * 1024;
  specs[0].code_base = (64ull << 20) + 32 * 1024;
  specs[0].code_bytes = 16 * 1024;
  s.hier.warm(specs, 3);
  // Hot and code lines hit L1 immediately.
  EXPECT_EQ(s.hier.load(0, specs[0].hot_base, 0, 1).outcome, AccessOutcome::kHitL1);
  EXPECT_EQ(s.hier.ifetch(0, specs[0].code_base, 0, 2).outcome, AccessOutcome::kHitL1);
  // The L2 holds a uniform sample of the 64 MB footprint: with a 4 MB L2
  // roughly 1/16 of probed footprint lines should be resident.
  std::uint64_t present = 0;
  for (int i = 0; i < 1000; ++i) {
    if (s.hier.l2().probe(static_cast<Addr>(i) * 64 * 1024)) ++present;
  }
  EXPECT_GT(present, 25u);
  EXPECT_LT(present, 160u);
}

TEST(Hierarchy, PrefetcherCoversSequentialStream) {
  HierarchyConfig cfg;
  cfg.prefetch = PrefetchConfig{.enabled = true, .degree = 2};
  Stack s(cfg, 1);
  // Walk a sequential stream of demand loads; after the detector locks on,
  // later lines should already be in flight (merges) or resident.
  std::uint64_t token = 1;
  for (int i = 0; i < 32; ++i) {
    s.hier.load(0, 0x100000 + static_cast<Addr>(i) * 64, 0, token++);
    // Let the memory system advance a little between touches.
    for (int t = 0; t < 40; ++t) {
      s.hier.tick(s.now);
      s.mcu.tick(s.now);
      ++s.now;
    }
  }
  s.drain();
  EXPECT_GT(s.hier.prefetches_issued(), 8u);
  EXPECT_GT(s.hier.prefetches_useful(), 4u);
  EXPECT_GT(s.mcu.stats().prefetch_reads, 0u);
}

TEST(Hierarchy, PrefetchOffByDefault) {
  Stack s({}, 1);
  std::uint64_t token = 1;
  for (int i = 0; i < 16; ++i) {
    s.hier.load(0, 0x100000 + static_cast<Addr>(i) * 64, 0, token++);
  }
  s.drain();
  EXPECT_EQ(s.hier.prefetches_issued(), 0u);
  EXPECT_EQ(s.mcu.stats().prefetch_reads, 0u);
}

TEST(Hierarchy, DemandMergeOntoPrefetchWakesWaiter) {
  HierarchyConfig cfg;
  cfg.prefetch = PrefetchConfig{.enabled = true, .degree = 1};
  Stack s(cfg, 1);
  // Two sequential misses train the prefetcher; the prefetch for line 2 is
  // in flight when the demand load for it arrives.
  s.hier.load(0, 0x200000, 0, 1);
  s.hier.load(0, 0x200040, 0, 2);
  ASSERT_GT(s.hier.prefetches_issued(), 0u);
  const AccessReply r = s.hier.load(0, 0x200080, 0, 3);
  EXPECT_EQ(r.outcome, AccessOutcome::kMiss);  // merged onto the prefetch
  s.drain();
  // All three demand waiters woken.
  ASSERT_EQ(s.fills.size(), 3u);
  EXPECT_GT(s.hier.prefetches_useful(), 0u);
}

TEST(Hierarchy, IfetchMissWakesFrontendWaiter) {
  Stack s;
  const std::uint64_t token = (1ull << 63) | 77;
  EXPECT_EQ(s.hier.ifetch(0, 0x7000, 0, token).outcome, AccessOutcome::kMiss);
  s.drain();
  ASSERT_EQ(s.fills.size(), 1u);
  EXPECT_EQ(s.fills[0].first, token);
}

}  // namespace
}  // namespace memsched::cache
