// Component microbenchmarks (google-benchmark): cost of the simulator's
// building blocks in isolation, the checkpoint write and read paths
// included. These measure the *simulator*, not the modeled hardware.
// Whole-system cost per visited tick, split by layer, is measured by
// perfbench's traced run (sim.loop_self_ns_per_visit, sched.ns_per_round,
// ...) over complete runs.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "ckpt/snapshot.hpp"
#include "core/priority_table.hpp"
#include "core/scheduler_factory.hpp"
#include "cpu/core_model.hpp"
#include "dram/address_map.hpp"
#include "dram/dram_system.hpp"
#include "mc/controller.hpp"
#include "sched/policies.hpp"
#include "sim/system.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace memsched;

void BM_Xoshiro(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoshiro);

void BM_AddressDecode(benchmark::State& state) {
  dram::Organization org;
  dram::AddressMap map(org, dram::Interleave::kHybrid);
  util::Xoshiro256 rng(2);
  Addr a = 0;
  for (auto _ : state) {
    a += 64 * 1024 + 64;
    benchmark::DoNotOptimize(map.decode(a));
  }
}
BENCHMARK(BM_AddressDecode);

void BM_CacheAccess(benchmark::State& state) {
  cache::CacheConfig cfg;
  cfg.size_bytes = 4ull << 20;
  cfg.ways = 4;
  cache::SetAssocCache cache(cfg);
  util::Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(64ull << 20) & ~63ull, false));
  }
}
BENCHMARK(BM_CacheAccess);

// Trace generation per instruction on its two paths: next() is the detailed
// engine's read, next_ref the sampled fast-forward's (a call runs to the
// next memory reference). swim is MEM-class, gzip ILP-class. per_inst is
// the time per instruction (printed in ns).
void BM_SyntheticStream(benchmark::State& state, const char* app, bool by_ref) {
  trace::SyntheticStream s(trace::spec2000_by_name(app), 0, 7);
  constexpr std::uint64_t kInsts = 4096;
  for (auto _ : state) {
    if (by_ref) {
      trace::InstRecord rec;
      for (std::uint64_t left = kInsts; left > 0;) {
        left -= s.next_ref(left, rec);
        benchmark::DoNotOptimize(rec);
      }
    } else {
      for (std::uint64_t i = 0; i < kInsts; ++i) benchmark::DoNotOptimize(s.next());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kInsts));
  state.counters["per_inst"] = benchmark::Counter(
      static_cast<double>(kInsts),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_SyntheticStream, swim_next, "swim", false);
BENCHMARK_CAPTURE(BM_SyntheticStream, swim_next_ref, "swim", true);
BENCHMARK_CAPTURE(BM_SyntheticStream, gzip_next, "gzip", false);
BENCHMARK_CAPTURE(BM_SyntheticStream, gzip_next_ref, "gzip", true);

/// One core of the closed-loop system, from public constructors: DRAM, an
/// HF-RF controller, a hierarchy warmed as MultiCoreSystem warms it, the
/// core and its synthetic stream. Stepped one tick window per call, as a
/// busy tick of the exact engine steps it (no skip engine).
class CoreRig {
 public:
  explicit CoreRig(const trace::AppProfile& app)
      : stream_(app, /*base_addr=*/0, /*seed=*/7),
        dram_(cfg_.timing, cfg_.org, cfg_.interleave, cfg_.bank_xor),
        controller_(dram_, sched_, cfg_.controller, 1, /*seed=*/7),
        hierarchy_(cfg_.hierarchy, 1, controller_),
        core_(0, cfg_.core, app.ilp_ipc, stream_, hierarchy_) {
    hierarchy_.set_fill_callback(
        [this](std::uint64_t token, CpuCycle done) { core_.on_fill(token, done); });
    cache::WarmSpec ws;
    ws.footprint_bytes = app.footprint_bytes;
    ws.dirty_share = app.dirty_fresh_share;
    ws.hot_base = app.footprint_bytes;
    ws.hot_bytes = app.hot_bytes;
    ws.hot_dirty_share = app.store_share;
    ws.code_base = ws.hot_base + app.hot_bytes;
    ws.code_bytes = app.code_bytes;
    hierarchy_.warm({ws}, /*seed=*/7);
  }

  void step(Tick ticks) {
    for (const Tick end = t_ + ticks; t_ < end; ++t_) {
      hierarchy_.tick(t_);
      controller_.tick(t_);
      core_.step_to((t_ + 1) * cfg_.cpu_ratio);
    }
  }

  [[nodiscard]] std::uint32_t cpu_ratio() const { return cfg_.cpu_ratio; }
  [[nodiscard]] const cpu::CoreModel& core() const { return core_; }

 private:
  sim::SystemConfig cfg_;
  sched::HitFirstReadFirstScheduler sched_;
  trace::SyntheticStream stream_;
  dram::DramSystem dram_;
  mc::MemoryController controller_;
  cache::CacheHierarchy hierarchy_;
  cpu::CoreModel core_;
  Tick t_ = 0;
};

// The core front end (CoreModel::step_to and the trace, cache and memory
// calls it makes) per simulated CPU cycle: swim is MEM-class, eon compute
// bound. The rig keeps running across iterations, in steady state after
// the first. per_cpu_cycle is the time per simulated CPU cycle (printed in
// ns); ipc shows which regime the core ran in.
void BM_CoreStep(benchmark::State& state, const char* app) {
  CoreRig rig(trace::spec2000_by_name(app));
  constexpr Tick kTicks = 10'000;
  for (auto _ : state) {
    rig.step(kTicks);
    benchmark::DoNotOptimize(rig.core().committed());
  }
  state.counters["per_cpu_cycle"] = benchmark::Counter(
      static_cast<double>(kTicks * rig.cpu_ratio()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.counters["ipc"] = static_cast<double>(rig.core().committed()) /
                          static_cast<double>(rig.core().cycle());
}
BENCHMARK_CAPTURE(BM_CoreStep, swim, "swim");
BENCHMARK_CAPTURE(BM_CoreStep, eon, "eon");

void BM_PriorityTableLookup(benchmark::State& state) {
  core::MeTable me({2.5, 0.3, 0.7, 0.08});
  core::PriorityTable table(me);
  std::uint32_t p = 1;
  for (auto _ : state) {
    p = (p % 64) + 1;
    benchmark::DoNotOptimize(table.lookup(p & 3, p));
  }
}
BENCHMARK(BM_PriorityTableLookup);

// The checkpoint write path: CRC over a snapshot-sized buffer, and the
// serialization of a 1-core system's largest sections (no I/O).
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> buf(1'300'000);
  util::Xoshiro256 rng(4);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) benchmark::DoNotOptimize(ckpt::crc32(buf.data(), buf.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32);

/// The snapshot both checkpoint benchmarks use: a 1-core system after 5k
/// instructions, and its three largest sections.
class SnapshotSubject {
 public:
  SnapshotSubject() {
    core::SchedulerArgs args;
    args.core_count = 1;
    args.me = core::MeTable(std::vector<double>{9.0});
    args.ipc_single = {2.0};
    sched_ = core::make_scheduler("ME-LREQ", args);
    sim::SystemConfig cfg;
    cfg.cores = 1;
    sys_ = std::make_unique<sim::MultiCoreSystem>(
        cfg, std::vector<trace::AppProfile>{trace::spec2000_by_name("swim")}, *sched_, 5);
    sys_->run(5'000, 5'000);
  }

  void save(ckpt::Writer& w) const {
    w.begin_section("cache");
    sys_->hierarchy().save_state(w);
    w.begin_section("mc");
    sys_->controller().save_state(w);
    w.begin_section("dram");
    sys_->dram().save_state(w);
  }

  /// Restores the sections into the components they came from (the system
  /// exposes them const; the objects themselves are not).
  void load(ckpt::Reader& r) const {
    r.open_section("cache");
    const_cast<cache::CacheHierarchy&>(sys_->hierarchy()).load_state(r);
    r.close_section();
    r.open_section("mc");
    const_cast<mc::MemoryController&>(sys_->controller()).load_state(r);
    r.close_section();
    r.open_section("dram");
    const_cast<dram::DramSystem&>(sys_->dram()).load_state(r);
    r.close_section();
  }

 private:
  sched::SchedulerPtr sched_;
  std::unique_ptr<sim::MultiCoreSystem> sys_;
};

void BM_SnapshotSerialize(benchmark::State& state) {
  const SnapshotSubject subject;
  for (auto _ : state) {
    ckpt::Writer w;
    subject.save(w);
    benchmark::DoNotOptimize(&w);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SnapshotSerialize);

// The checkpoint read path: validate (header, section CRCs) and decode the
// image BM_SnapshotSerialize builds, from memory (no I/O).
void BM_SnapshotParse(benchmark::State& state) {
  const SnapshotSubject subject;
  const std::string path =
      (std::filesystem::temp_directory_path() / "memsched_bm_snapshot.ckpt").string();
  {
    ckpt::Writer w;
    subject.save(w);
    w.save(path, "bench");
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> image((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  for (auto _ : state) {
    ckpt::Reader r(image, "bench");
    subject.load(r);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_SnapshotParse);

}  // namespace

BENCHMARK_MAIN();
