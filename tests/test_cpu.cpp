// Unit tests for src/cpu: the out-of-order core performance model.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "ckpt/snapshot.hpp"
#include "cpu/core_model.hpp"
#include "dram/dram_system.hpp"
#include "mc/controller.hpp"
#include "sched/policies.hpp"
#include "trace/inst_stream.hpp"

namespace memsched::cpu {
namespace {

/// Scripted instruction stream for deterministic tests.
class ScriptStream final : public trace::InstStream {
 public:
  explicit ScriptStream(std::vector<trace::InstRecord> recs, bool loop = true)
      : recs_(std::move(recs)), loop_(loop) {}

  trace::InstRecord next() override {
    if (pos_ >= recs_.size()) {
      if (!loop_) return trace::InstRecord{};  // endless compute
      pos_ = 0;
    }
    return recs_[pos_++];
  }
  void reset(std::uint64_t) override { pos_ = 0; }

 private:
  std::vector<trace::InstRecord> recs_;
  bool loop_;
  std::size_t pos_ = 0;
};

trace::InstRecord compute() { return {}; }
trace::InstRecord load(Addr a, bool dep = false) {
  return {trace::InstClass::kLoad, a, dep};
}
trace::InstRecord store(Addr a) { return {trace::InstClass::kStore, a, false}; }

struct Rig {
  dram::DramSystem dram{dram::Timing{}, dram::Organization{}, dram::Interleave::kHybrid};
  sched::HitFirstReadFirstScheduler sched;
  mc::MemoryController mcu;
  cache::CacheHierarchy hier;
  std::unique_ptr<trace::InstStream> stream;
  std::unique_ptr<CoreModel> core;

  explicit Rig(std::vector<trace::InstRecord> recs, double ipc = 4.0,
               CoreConfig cfg = {})
      : mcu(dram, sched, mc::ControllerConfig{}, 1, 1), hier({}, 1, mcu) {
    cfg.model_ifetch = false;  // scripted streams carry no code region
    stream = std::make_unique<ScriptStream>(std::move(recs));
    core = std::make_unique<CoreModel>(0, cfg, ipc, *stream, hier);
    hier.set_fill_callback([this](std::uint64_t token, CpuCycle done) {
      core->on_fill(token, done);
    });
  }

  void run_ticks(Tick n) {
    for (Tick t = 0; t < n; ++t) {
      hier.tick(t);
      mcu.tick(t);
      core->step_to((t + 1) * 8);
    }
  }
};

TEST(CoreModel, ComputeOnlyCommitsAtDispatchRate) {
  Rig rig({compute()}, /*ipc=*/2.0);
  rig.run_ticks(1000);  // 8000 CPU cycles
  EXPECT_NEAR(static_cast<double>(rig.core->committed()), 2.0 * 8000, 16.0);
}

TEST(CoreModel, DispatchCappedByIssueWidth) {
  CoreConfig cfg;
  cfg.issue_width = 4;
  Rig rig({compute()}, /*ipc=*/10.0, cfg);
  rig.run_ticks(500);
  EXPECT_LE(rig.core->committed(), 4u * 500 * 8 + 4);
  EXPECT_NEAR(static_cast<double>(rig.core->committed()), 4.0 * 4000, 32.0);
}

TEST(CoreModel, L1HitsDoNotStall) {
  // Loads to one line: first miss warms it; after that pure L1 hits.
  Rig rig({load(0x100), compute(), compute(), compute()}, 4.0);
  rig.run_ticks(2000);
  const auto& st = rig.core->stats();
  EXPECT_GT(st.l1d_hits, 1000u);
  // Near-full dispatch despite the loads.
  EXPECT_GT(rig.core->committed(), 2000u * 8 * 4 * 9 / 10);
}

TEST(CoreModel, IndependentMissesOverlap) {
  // 8 independent miss loads per iteration over a huge stride: MLP limited
  // only by ROB/MSHR, so throughput is far better than serial misses.
  std::vector<trace::InstRecord> recs;
  for (int i = 0; i < 8; ++i) recs.push_back(load(static_cast<Addr>(i) * (1 << 20)));
  for (int i = 0; i < 24; ++i) recs.push_back(compute());
  Rig rig(recs, 4.0);
  rig.run_ticks(4000);
  const std::uint64_t overlapped = rig.core->committed();

  // Same loads but each dependent on the previous: serialised.
  std::vector<trace::InstRecord> dep_recs;
  for (int i = 0; i < 8; ++i)
    dep_recs.push_back(load(static_cast<Addr>(i) * (1 << 20), /*dep=*/true));
  for (int i = 0; i < 24; ++i) dep_recs.push_back(compute());
  Rig rig2(dep_recs, 4.0);
  rig2.run_ticks(4000);
  const std::uint64_t serial = rig2.core->committed();

  EXPECT_GT(overlapped, serial * 2);
  EXPECT_GT(rig2.core->stats().stall_dep, 0u);
}

TEST(CoreModel, RobLimitsRunahead) {
  // A long chain of dependent misses to DISTINCT lines: the window fills
  // behind each miss and issue must stall on ROB/dependence.
  std::vector<trace::InstRecord> recs;
  for (int i = 0; i < 2000; ++i) {
    recs.push_back(load(static_cast<Addr>(i + 1) * (1 << 20), /*dep=*/true));
    for (int j = 0; j < 3; ++j) recs.push_back(compute());
  }
  CoreConfig cfg;
  cfg.rob_entries = 16;
  Rig rig(recs, 4.0, cfg);
  rig.run_ticks(2000);
  EXPECT_GT(rig.core->stats().stall_rob + rig.core->stats().stall_dep, 100u);
  EXPECT_GT(rig.core->committed(), 0u);
}

TEST(CoreModel, MshrLimitBoundsOutstanding) {
  std::vector<trace::InstRecord> recs;
  for (int i = 0; i < 64; ++i) recs.push_back(load(static_cast<Addr>(i + 1) * (1 << 20)));
  CoreConfig cfg;
  cfg.l1d_mshr = 4;
  Rig rig(recs, 4.0, cfg);
  for (Tick t = 0; t < 200; ++t) {
    rig.hier.tick(t);
    rig.mcu.tick(t);
    rig.core->step_to((t + 1) * 8);
    EXPECT_LE(rig.core->outstanding_misses(), 4u);
  }
  EXPECT_GT(rig.core->stats().stall_mshr, 0u);
}

TEST(CoreModel, LoadStateRefusesMoreOutstandingLoadsThanTheCoreHolds) {
  // The outstanding loads live in a ring of min(lq_entries, l1d_mshr)
  // entries with no grow path, so a snapshot listing more of them cannot
  // belong to this core: the load is refused, naming count and limit.
  std::vector<trace::InstRecord> recs;
  for (int i = 0; i < 64; ++i) recs.push_back(load(static_cast<Addr>(i + 1) * (1 << 20)));
  CoreConfig cfg;
  cfg.l1d_mshr = 8;
  Rig eight(recs, 4.0, cfg);
  eight.run_ticks(2);  // 8 misses issue in the first cycles; none has filled
  ASSERT_EQ(eight.core->outstanding_misses(), 8u);
  ckpt::Writer w;
  eight.core->save_state(w);
  const std::vector<std::uint8_t> buf = w.record();

  cfg.l1d_mshr = 4;
  Rig four(recs, 4.0, cfg);
  ckpt::Reader r = ckpt::Reader::record(buf.data(), buf.size());
  try {
    four.core->load_state(r);
    FAIL() << "8 outstanding loads loaded into a core that holds 4";
  } catch (const ckpt::SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("8 outstanding loads"), std::string::npos) << what;
    EXPECT_NE(what.find("limit of 4"), std::string::npos) << what;
  }

  // The same bytes load into a core that can hold them.
  cfg.l1d_mshr = 8;
  Rig again(recs, 4.0, cfg);
  ckpt::Reader r2 = ckpt::Reader::record(buf.data(), buf.size());
  again.core->load_state(r2);
  EXPECT_NO_THROW(r2.close_section());
  EXPECT_EQ(again.core->outstanding_misses(), 8u);
  EXPECT_EQ(again.core->cycle(), eight.core->cycle());
}

TEST(CoreModel, StoresDoNotBlockCommit) {
  std::vector<trace::InstRecord> recs;
  recs.push_back(store(0x7000000));
  for (int i = 0; i < 3; ++i) recs.push_back(compute());
  Rig rig(recs, 4.0);
  rig.run_ticks(500);
  // Store misses go to DRAM but commit continues at near-full rate modulo
  // L2-MSHR back-pressure.
  EXPECT_GT(rig.core->committed(), 500u * 8 * 2);
  EXPECT_GT(rig.core->stats().stores, 100u);
}

TEST(CoreModel, StoreQueueBoundsOutstandingStoreMisses) {
  // A pure stream of store misses to distinct lines: the store queue fills
  // to sq_entries and dispatch stalls until fills return.
  std::vector<trace::InstRecord> recs;
  for (int i = 0; i < 256; ++i) recs.push_back(store(static_cast<Addr>(i + 1) * (1 << 20)));
  CoreConfig cfg;
  cfg.sq_entries = 4;
  Rig rig(recs, 4.0, cfg);
  for (Tick t = 0; t < 400; ++t) {
    rig.hier.tick(t);
    rig.mcu.tick(t);
    rig.core->step_to((t + 1) * 8);
    ASSERT_LE(rig.core->outstanding_stores(), 4u);
  }
  EXPECT_GT(rig.core->stats().stall_sq, 10u);
}

TEST(CoreModel, StoreQueueDrainsOnFills) {
  // Distinct cache sets so the looped stream hits after the first pass.
  std::vector<trace::InstRecord> recs;
  for (int i = 0; i < 8; ++i) {
    recs.push_back(store(static_cast<Addr>(i + 1) * (1 << 20) +
                         static_cast<Addr>(i) * 64));
  }
  for (int i = 0; i < 1000; ++i) recs.push_back(compute());
  Rig rig(recs, 4.0);
  rig.run_ticks(2000);
  EXPECT_EQ(rig.core->outstanding_stores(), 0u);  // all fills returned
  EXPECT_GT(rig.core->stats().stores, 8u);
}

TEST(CoreModel, StoreHitsDoNotOccupyStoreQueue) {
  // Warm one line, then hammer it with stores: all L1 hits, zero SQ usage.
  std::vector<trace::InstRecord> recs{store(0x40)};
  Rig rig(recs, 4.0);
  rig.run_ticks(500);
  EXPECT_EQ(rig.core->outstanding_stores(), 0u);
  EXPECT_EQ(rig.core->stats().stall_sq, 0u);
}

TEST(CoreModel, CommitNeverExceedsIssueAndIsMonotonic) {
  std::vector<trace::InstRecord> recs;
  recs.push_back(load(0x100));
  recs.push_back(load(0x9000000));
  recs.push_back(compute());
  Rig rig(recs, 3.0);
  std::uint64_t prev = 0;
  for (Tick t = 0; t < 1000; ++t) {
    rig.hier.tick(t);
    rig.mcu.tick(t);
    rig.core->step_to((t + 1) * 8);
    EXPECT_GE(rig.core->committed(), prev);
    prev = rig.core->committed();
  }
}

TEST(CoreModel, TokensRoundTrip) {
  const std::uint64_t tok = CoreModel::make_token(5, 123456, false);
  EXPECT_EQ(CoreModel::token_core(tok), 5u);
  EXPECT_EQ(tok >> 63, 0u);
  const std::uint64_t itok = CoreModel::make_token(7, 1, true);
  EXPECT_EQ(CoreModel::token_core(itok), 7u);
  EXPECT_EQ(itok >> 63, 1u);
}

TEST(CoreModel, StatsClassifyAccessLevels) {
  Rig rig({load(0x100), load(0x100), compute()}, 4.0);
  rig.run_ticks(1000);
  const auto& st = rig.core->stats();
  EXPECT_GT(st.loads, 0u);
  EXPECT_EQ(st.dram_loads, 1u);  // only the first touch of the single line
  EXPECT_GT(st.l1d_hits, st.dram_loads);
}

TEST(CoreModel, ResetStatsZeroesCounters) {
  Rig rig({load(0x100)}, 4.0);
  rig.run_ticks(100);
  ASSERT_GT(rig.core->stats().loads, 0u);
  rig.core->reset_stats();
  EXPECT_EQ(rig.core->stats().loads, 0u);
  EXPECT_EQ(rig.core->stats().stall_rob, 0u);
}

TEST(CoreModel, DeterministicAcrossRuns) {
  auto make = [] {
    std::vector<trace::InstRecord> recs;
    for (int i = 0; i < 4; ++i) recs.push_back(load(static_cast<Addr>(i) * (2 << 20)));
    for (int i = 0; i < 12; ++i) recs.push_back(compute());
    return recs;
  };
  Rig a(make(), 3.0), b(make(), 3.0);
  a.run_ticks(1500);
  b.run_ticks(1500);
  EXPECT_EQ(a.core->committed(), b.core->committed());
  EXPECT_EQ(a.core->cycle(), b.core->cycle());
  EXPECT_EQ(a.mcu.stats().reads_served, b.mcu.stats().reads_served);
}

void expect_same_state(const CoreModel& a, const CoreModel& b) {
  EXPECT_EQ(a.cycle(), b.cycle());
  EXPECT_EQ(a.committed(), b.committed());
  const CoreRunStats& sa = a.stats();
  const CoreRunStats& sb = b.stats();
  EXPECT_EQ(sa.loads, sb.loads);
  EXPECT_EQ(sa.stores, sb.stores);
  EXPECT_EQ(sa.l1d_hits, sb.l1d_hits);
  EXPECT_EQ(sa.l2_hits, sb.l2_hits);
  EXPECT_EQ(sa.dram_loads, sb.dram_loads);
  EXPECT_EQ(sa.stall_rob, sb.stall_rob);
  EXPECT_EQ(sa.stall_dep, sb.stall_dep);
  EXPECT_EQ(sa.stall_mshr, sb.stall_mshr);
  EXPECT_EQ(sa.stall_sq, sb.stall_sq);
  EXPECT_EQ(sa.stall_backpressure, sb.stall_backpressure);
  EXPECT_EQ(sa.stall_frontend, sb.stall_frontend);
}

TEST(CoreModel, StepWindowPartitionInvariance) {
  // Advancing a core through one tick window in several step_to calls must
  // land in exactly the same state as one call covering the whole window —
  // the fast-forward inside step_to may not depend on how the caller chops
  // up time. Miss-heavy stream so the blocked/fast-forward path is hot.
  auto make = [] {
    std::vector<trace::InstRecord> recs;
    for (int i = 0; i < 6; ++i)
      recs.push_back(load(static_cast<Addr>(i + 1) * (1 << 20), i % 2 == 1));
    for (int i = 0; i < 10; ++i) recs.push_back(compute());
    recs.push_back(store(0x5000000));
    return recs;
  };
  Rig whole(make(), 3.0), chopped(make(), 3.0);
  for (Tick t = 0; t < 1500; ++t) {
    whole.hier.tick(t);
    whole.mcu.tick(t);
    whole.core->step_to((t + 1) * 8);

    chopped.hier.tick(t);
    chopped.mcu.tick(t);
    // Uneven partition of the same window, including a zero-length step.
    chopped.core->step_to(t * 8 + 3);
    chopped.core->step_to(t * 8 + 3);
    chopped.core->step_to(t * 8 + 7);
    chopped.core->step_to((t + 1) * 8);
    expect_same_state(*whole.core, *chopped.core);
    if (HasFailure()) return;  // don't spam 1500 copies of the same diff
  }
}

TEST(CoreModel, BlockedCoreSkipsOnlyToEventsThatCanUnblockIt) {
  // A core whose issue and commit are both blocked may skip ahead inside a
  // step_to window, but never past an event that unblocks it: the head
  // load's completion, the completion of the last tracked load (a dependent
  // load's operand) or frontend readiness. A core stepped one CPU cycle per
  // call cannot skip at all, so it is the reference for one stepped a whole
  // tick window per call; both must agree at every tick end.
  //
  // L1D is 64 KiB 2-way and L2 4 MiB 4-way: lines k * 32 KiB share the L1D
  // set only, so after the first pass they miss L1D and hit L2; lines
  // k * 1 MiB share the L1D and the L2 set, and six of them in rotation
  // always miss to DRAM. Each group puts a completed L2 hit, and a dependent
  // load whose producer is that L2 hit, behind a pending DRAM miss; the ROB
  // then fills behind the miss with completed L2 hits in the list.
  auto make = [] {
    std::vector<trace::InstRecord> recs;
    for (Addr k = 1; k <= 6; ++k) {
      recs.push_back(load(k << 20));
      recs.push_back(load((2 * k - 1) * (32 << 10)));
      recs.push_back(load(2 * k * (32 << 10), /*dep=*/true));
      for (int i = 0; i < 40; ++i) recs.push_back(compute());
    }
    return recs;
  };
  for (const std::uint32_t mshr : {32u, 2u}) {
    SCOPED_TRACE(mshr);
    CoreConfig cfg;
    cfg.l1d_mshr = mshr;
    Rig unit(make(), 3.0, cfg), window(make(), 3.0, cfg);
    for (Tick t = 0; t < 3000; ++t) {
      unit.hier.tick(t);
      unit.mcu.tick(t);
      for (CpuCycle c = t * 8 + 1; c <= (t + 1) * 8; ++c) unit.core->step_to(c);

      window.hier.tick(t);
      window.mcu.tick(t);
      window.core->step_to((t + 1) * 8);

      expect_same_state(*unit.core, *window.core);
      EXPECT_EQ(unit.core->next_activity_cycle(), window.core->next_activity_cycle());
      if (HasFailure()) return;  // one diff, not 3000
    }
    const CoreRunStats& st = window.core->stats();
    EXPECT_GT(st.l2_hits, 100u);
    EXPECT_GT(st.dram_loads, 50u);
    EXPECT_GT(st.stall_dep, 0u);
    EXPECT_GT(mshr == 2 ? st.stall_mshr : st.stall_rob, 0u);
  }
}

TEST(CoreModel, StallCountersCountCyclesNotAttempts) {
  // The stall_* statistics are defined in CPU *cycles* blocked, not in
  // issue attempts: re-stepping a blocked core (which retries the same
  // instruction) must not inflate them beyond the elapsed cycles.
  std::vector<trace::InstRecord> recs;
  recs.push_back(load(1 << 20, /*dep=*/false));
  recs.push_back(load(2 << 20, /*dep=*/true));  // serialises on the first
  Rig rig(recs, 4.0);
  rig.run_ticks(1000);
  const CoreRunStats& st = rig.core->stats();
  const std::uint64_t total_stalls = st.stall_rob + st.stall_dep + st.stall_mshr +
                                     st.stall_sq + st.stall_backpressure +
                                     st.stall_frontend;
  EXPECT_GT(st.stall_dep, 0u);
  // Each elapsed CPU cycle records at most one stall reason.
  EXPECT_LE(total_stalls, rig.core->cycle());
}

TEST(CoreModel, NextActivityCycleReflectsBlockedState) {
  // Compute-only core: always active, so the self-wake report is exactly
  // the window end the caller asked for.
  Rig busy({compute()}, 2.0);
  busy.run_ticks(10);
  EXPECT_EQ(busy.core->next_activity_cycle(), 10u * 8);

  // A dependent-miss chain blocks the core on an external DRAM fill: after
  // a window that ends blocked with no known completion, the core must
  // report kIdle (only on_fill can unblock it), and the fill must restore
  // an actionable wake-up at or before the fill cycle.
  std::vector<trace::InstRecord> recs;
  recs.push_back(load(1 << 20, false));
  recs.push_back(load(2 << 20, true));
  Rig rig(recs, 4.0);
  bool saw_idle = false, saw_wake_after_fill = false;
  for (Tick t = 0; t < 400; ++t) {
    rig.hier.tick(t);
    rig.mcu.tick(t);
    rig.core->step_to((t + 1) * 8);
    const CpuCycle wake = rig.core->next_activity_cycle();
    if (wake == CoreModel::kIdle) {
      saw_idle = true;
    } else if (saw_idle) {
      // First non-idle report after being externally blocked comes from
      // on_fill and must never lie in the already-simulated past's favour:
      // it is a cycle the caller can step to and observe progress.
      saw_wake_after_fill = true;
      EXPECT_GE(wake, rig.core->cycle());
      break;
    }
  }
  EXPECT_TRUE(saw_idle);
  EXPECT_TRUE(saw_wake_after_fill);
}

}  // namespace
}  // namespace memsched::cpu
