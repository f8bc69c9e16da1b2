#include "cases.hpp"

#include <cstdio>
#include <set>

#include "sim/workloads.hpp"
#include "util/config.hpp"

namespace perfbench {

using namespace memsched;

Seeds seeds_for_slot(std::uint32_t slot) {
  Seeds s;
  s.slot = slot;
  // Slot 0 keeps the library's default slices (ExperimentConfig).
  s.eval = 2002 + 7919ULL * slot;
  s.profile = 1001 + 104729ULL * slot;
  return s;
}

Seeds derive_seeds(std::uint64_t seed) {
  return seeds_for_slot(seed == kHeldOutSeed ? kHeldOutSlot
                                             : static_cast<std::uint32_t>(seed % kHeldOutSlot));
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kClosedExact: return "closed-exact";
    case Workload::kOpenLoop: return "open-loop";
    case Workload::kSampled: return "sampled";
    case Workload::kSweep: return "sweep";
  }
  return "?";
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {Workload::kClosedExact, Workload::kOpenLoop,
                                             Workload::kSampled, Workload::kSweep};
  return kAll;
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w : all_workloads())
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const std::vector<ClosedCase>& closed_exact_cases() {
  static const std::vector<ClosedCase> kCases = {
      {"8MEM-1", "ME-LREQ", 30'000},
      {"4MIX-1", "BLISS", 800'000},
  };
  return kCases;
}

const std::vector<ClosedCase>& sampled_cases() {
  static const std::vector<ClosedCase> kCases = {
      {"4MEM-1", "ME-LREQ", 8'000'000},
      {"4MIX-1", "ME-LREQ", 10'000'000},
  };
  return kCases;
}

std::string OpenCase::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s@%.2f", scheme.c_str(), load);
  return buf;
}

const std::vector<OpenCase>& open_loop_cases() {
  static const std::vector<OpenCase> kCases = {
      {"HF-RF", 0.02, 12'000'000},
      {"HF-RF", 0.30, 600'000},
      {"ME-LREQ", 0.02, 12'000'000},
      {"ME-LREQ", 0.30, 600'000},
  };
  return kCases;
}

sim::SystemConfig closed_config(std::uint32_t cores, sim::Engine engine) {
  sim::SystemConfig cfg;
  cfg.cores = cores;
  cfg.engine = engine;
  cfg.audit.enabled = false;
  return cfg;
}

sim::OpenLoopConfig open_config(const OpenCase& c, std::uint64_t seed) {
  sim::OpenLoopConfig cfg;
  cfg.cores = 4;
  cfg.inject_per_tick = c.load;
  cfg.warmup_ticks = c.ticks / 10;
  cfg.measure_ticks = c.ticks - cfg.warmup_ticks;
  cfg.seed = seed;
  cfg.audit.enabled = false;
  return cfg;
}

namespace {

sim::ExperimentConfig profiling_config(std::uint64_t profile_seed) {
  sim::ExperimentConfig cfg;
  cfg.base.audit.enabled = false;
  cfg.profile_insts = kProfileInsts;
  cfg.warmup_insts = kWarmupInsts;
  cfg.profile_seed = profile_seed;
  return cfg;
}

}  // namespace

SchemeFactory::SchemeFactory(std::uint64_t profile_seed) : exp_(profiling_config(profile_seed)) {}

core::SchedulerArgs SchemeFactory::args_for(const std::string& mix) {
  const sim::Workload& w = sim::workload_by_name(mix);
  core::SchedulerArgs args;
  args.core_count = w.cores();
  args.me = exp_.me_table_for(w);
  const sim::SystemConfig& base = exp_.config().base;
  args.cpu_hz = base.cpu_hz();
  args.epoch_cpu_cycles = static_cast<double>(base.epoch_ticks) * base.cpu_ratio;
  return args;
}

sched::SchedulerPtr SchemeFactory::make(const std::string& scheme, const std::string& mix) {
  return core::make_scheduler(scheme, args_for(mix));
}

const std::vector<std::string>& fig2_schemes() {
  static const std::vector<std::string> kSchemes = {"HF-RF", "ME",      "RR",  "LREQ",
                                                    "ME-LREQ", "BLISS", "TCM", "CADS"};
  return kSchemes;
}

harness::GridSpec sweep_grid(const Seeds& seeds) {
  std::string schemes;
  for (const std::string& s : fig2_schemes()) schemes += (schemes.empty() ? "" : ",") + s;
  util::Config cli;
  cli.set("workloads", "2MEM-1,2MIX-1,4MEM-1,4MIX-1,8MEM-1,8MIX-1");
  cli.set("schemes", schemes);
  cli.set("insts", "5000");
  cli.set("profile_insts", "10000");
  cli.set("warmup", "5000");
  cli.set("seed", std::to_string(seeds.eval));
  cli.set("profile_seed", std::to_string(seeds.profile));
  cli.set("verify", "0");
  return harness::grid_from_config(cli);
}

std::uint64_t planned_point_insts(const harness::GridSpec& spec, const std::string& point) {
  const sim::ExperimentConfig& cfg = spec.cfg;
  const sim::Workload& w = sim::workload_by_name(point.substr(0, point.find('/')));
  const std::set<char> distinct(w.codes.begin(), w.codes.end());
  return distinct.size() * (2 * cfg.warmup_insts + cfg.profile_insts + cfg.eval_insts) +
         std::uint64_t{w.cores()} * (cfg.warmup_insts + cfg.eval_insts) * cfg.eval_repeats;
}

}  // namespace perfbench
