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
