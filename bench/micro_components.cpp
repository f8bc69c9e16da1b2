// Component microbenchmarks (google-benchmark): cost of the simulator's
// building blocks in isolation, the checkpoint write path included. These
// measure the *simulator*, not the modeled hardware. Whole-system cost per
// visited tick, split by layer, is measured by perfbench's traced run
// (sim.loop_self_ns_per_visit, sched.ns_per_round, ...) over complete runs.
#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.hpp"
#include "ckpt/snapshot.hpp"
#include "core/priority_table.hpp"
#include "core/scheduler_factory.hpp"
#include "dram/address_map.hpp"
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

void BM_SyntheticStream(benchmark::State& state) {
  const auto& app = trace::spec2000_by_name("swim");
  trace::SyntheticStream s(app, 0, 7);
  for (auto _ : state) benchmark::DoNotOptimize(s.next());
}
BENCHMARK(BM_SyntheticStream);

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

void BM_SnapshotSerialize(benchmark::State& state) {
  core::SchedulerArgs args;
  args.core_count = 1;
  args.me = core::MeTable(std::vector<double>{9.0});
  args.ipc_single = {2.0};
  const sched::SchedulerPtr sched = core::make_scheduler("ME-LREQ", args);
  sim::SystemConfig cfg;
  cfg.cores = 1;
  sim::MultiCoreSystem sys(cfg, {trace::spec2000_by_name("swim")}, *sched, 5);
  sys.run(5'000, 5'000);
  for (auto _ : state) {
    ckpt::Writer w;
    w.begin_section("cache");
    sys.hierarchy().save_state(w);
    w.begin_section("mc");
    sys.controller().save_state(w);
    w.begin_section("dram");
    sys.dram().save_state(w);
    benchmark::DoNotOptimize(&w);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SnapshotSerialize);

}  // namespace

BENCHMARK_MAIN();
