#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <optional>
#include <tuple>

#include "ckpt/snapshot.hpp"
#include "core/scheduler_factory.hpp"
#include "sched/policies.hpp"
#include "sim/runner.hpp"
#include "sim/watchdog.hpp"
#include "util/assert.hpp"
#include "util/config.hpp"
#include "util/json.hpp"

namespace memsched::sim {

namespace {

/// Structured stderr diagnostic for a rejected snapshot: the run still
/// completes (from cycle zero), but the fallback is observable — the sweep
/// orchestrator and CI harvest MEMSCHED_ERROR lines.
void report_snapshot_fallback(const std::string& context, const ckpt::ResumeInfo& info) {
  if (!info.attempted || info.resumed) return;
  util::Json line = util::Json::object();
  line["binary"] = "experiment";
  line["category"] = "snapshot_fallback";
  line["context"] = context;
  line["what"] = info.error;
  std::fprintf(stderr, "MEMSCHED_ERROR %s\n", line.dump(-1).c_str());
  std::fflush(stderr);
}

/// Identity of a reference-table file; the keys carry the configuration.
constexpr const char* kReferenceFile = "memsched-references-v1";

std::atomic<std::uint64_t> g_reference_simulations{0};

}  // namespace

const core::MeProfile& ReferenceTable::get(
    const std::string& key, const std::function<core::MeProfile()>& simulate) {
  std::unique_lock lock(mu_);
  for (;;) {
    if (const auto it = done_.find(key); it != done_.end()) return it->second;
    if (in_flight_.insert(key).second) break;  // this thread simulates it
    landed_.wait(lock);
  }
  lock.unlock();
  g_reference_simulations.fetch_add(1, std::memory_order_relaxed);
  std::optional<core::MeProfile> result;
  std::exception_ptr error;
  try {
    result = simulate();
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  in_flight_.erase(key);
  landed_.notify_all();  // after a failure, a waiter takes the key over
  if (error) std::rethrow_exception(error);
  return done_.emplace(key, std::move(*result)).first->second;
}

void ReferenceTable::save(const std::string& path) const {
  ckpt::Writer w;
  w.begin_section("references");
  std::lock_guard lock(mu_);
  w.put_u64(done_.size());
  for (const auto& [key, p] : done_) {
    w.put_str(key);
    w.put_str(p.app_name);
    w.put_f64(p.ipc_single);
    w.put_f64(p.bandwidth_gbs);
  }
  w.save(path, kReferenceFile);
}

std::size_t ReferenceTable::load(const std::string& path) {
  ckpt::Reader r(path, kReferenceFile);
  r.open_section("references");
  const std::uint64_t n = r.get_u64();
  std::map<std::string, core::MeProfile> read;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = r.get_str();
    std::string app = r.get_str();
    const double ipc = r.get_f64();
    const double bw = r.get_f64();
    read.emplace(std::move(key),
                 core::MeProfile::from_measurement(std::move(app), ipc, bw));
  }
  r.close_section();
  std::lock_guard lock(mu_);
  done_.merge(read);
  return static_cast<std::size_t>(n);
}

std::uint64_t ReferenceTable::simulations() {
  return g_reference_simulations.load(std::memory_order_relaxed);
}

void read_experiment_keys(const util::Config& cli, ExperimentConfig& cfg) {
  cfg.eval_insts = cli.get_uint("insts", cfg.eval_insts);
  cfg.eval_repeats =
      static_cast<std::uint32_t>(cli.get_uint("repeats", cfg.eval_repeats));
  cfg.warmup_insts = cli.get_uint("warmup", cfg.warmup_insts);
  cfg.profile_insts = cli.get_uint("profile_insts", cfg.profile_insts);
  cfg.eval_seed = cli.get_uint("seed", cfg.eval_seed);
  cfg.profile_seed = cli.get_uint("profile_seed", cfg.profile_seed);
  SystemConfig& base = cfg.base;
  if (cli.has("interleave"))
    base.interleave = dram::interleave_from_string(cli.get_string("interleave", ""));
  base.bank_xor = cli.get_bool("bank_xor", base.bank_xor);
  if (cli.has("grade"))
    base.apply_speed_grade(dram::SpeedGrade::by_name(cli.get_string("grade", "")));
  base.timing.refresh_enabled = cli.get_bool("refresh", base.timing.refresh_enabled);
  if (cli.has("engine")) base.engine = engine_from_string(cli.get_string("engine", ""));
  base.audit.enabled = cli.get_bool("verify", base.audit.enabled);
  base.progress_window_ticks =
      cli.get_uint("progress_window", base.progress_window_ticks);
}

Experiment::Experiment(ExperimentConfig cfg, std::shared_ptr<ReferenceTable> refs)
    : cfg_(std::move(cfg)),
      single_core_fp_(config_for(1).fingerprint()),
      refs_(refs != nullptr ? std::move(refs) : std::make_shared<ReferenceTable>()) {}

ckpt::CheckpointPolicy Experiment::policy_for(const std::string& context,
                                              ckpt::ResumeInfo* info) const {
  ckpt::CheckpointPolicy p;
  // Degrade to off under audit: the auditor's shadow state is not
  // serialized, and MultiCoreSystem::run rejects the combination outright.
  if (cfg_.ckpt_dir.empty() || cfg_.base.audit.enabled) return p;
  std::string stem = context;
  for (char& ch : stem) {
    if (ch == '/' || ch == ' ') ch = '_';
  }
  p.path = cfg_.ckpt_dir + "/" + stem + ".ckpt";
  p.interval_ticks = cfg_.ckpt_interval;
  p.stop = cfg_.ckpt_stop;
  p.context = context;
  p.resume_info = info;
  return p;
}

SystemConfig Experiment::config_for(std::uint32_t cores) const {
  SystemConfig sc = cfg_.base;
  sc.cores = cores;
  return sc;
}

std::uint64_t Experiment::slice_seed(std::uint32_t rep) const {
  return cfg_.eval_seed + rep * 0x9e3779b9ULL;
}

std::string Experiment::reference_key(const char* kind, const std::string& app_name,
                                      std::uint64_t seed, std::uint64_t insts) const {
  return std::string(kind) + "|" + single_core_fp_ + "|" + app_name + "|" +
         std::to_string(seed) + "|" + std::to_string(insts) + "|" +
         std::to_string(cfg_.warmup_insts) + "|" + std::to_string(cfg_.max_ticks);
}

core::MeProfile Experiment::simulate_reference(const std::string& app_name,
                                               std::uint64_t seed, std::uint64_t insts,
                                               const std::string& context,
                                               const std::string& what) const {
  const trace::AppProfile& app = trace::spec2000_by_name(app_name);
  sched::HitFirstReadFirstScheduler sched;
  MultiCoreSystem sys(config_for(1), {app}, sched, seed);
  ckpt::ResumeInfo info;
  const RunResult r =
      sys.run(insts, cfg_.warmup_insts, cfg_.max_ticks, policy_for(context, &info));
  report_snapshot_fallback(context, info);
  if (r.hit_tick_limit) {
    throw CycleBudgetError(what + " hit the " + std::to_string(cfg_.max_ticks) +
                               "-tick budget",
                           cfg_.max_ticks);
  }
  return core::MeProfile::from_measurement(app_name, r.cores[0].ipc, r.bandwidth_gbs);
}

const core::MeProfile& Experiment::profile(const std::string& app_name) {
  const std::uint64_t seed = cfg_.profile_seed;
  return refs_->get(reference_key("profile", app_name, seed, cfg_.profile_insts), [&] {
    return simulate_reference(app_name, seed, cfg_.profile_insts, "profile-" + app_name,
                              "profiling run for '" + app_name + "'");
  });
}

double Experiment::single_ipc(const std::string& app_name, std::uint64_t seed) {
  const std::string key = reference_key("alone", app_name, seed, cfg_.eval_insts);
  return refs_
      ->get(key,
            [&] {
              return simulate_reference(app_name, seed, cfg_.eval_insts,
                                        "single-" + app_name + "-" + std::to_string(seed),
                                        "single-core reference for '" + app_name + "'");
            })
      .ipc_single;
}

void Experiment::compute_references(const std::vector<Workload>& workloads,
                                    unsigned threads) {
  // (instructions, app, seed, is_profile): one task per distinct reference.
  std::set<std::tuple<std::uint64_t, std::string, std::uint64_t, bool>> distinct;
  const std::uint32_t repeats = std::max(1u, cfg_.eval_repeats);
  for (const Workload& w : workloads) {
    for (const trace::AppProfile& app : w.apps()) {
      distinct.emplace(cfg_.profile_insts, app.name, cfg_.profile_seed, true);
      for (std::uint32_t rep = 0; rep < repeats; ++rep)
        distinct.emplace(cfg_.eval_insts, app.name, slice_seed(rep), false);
    }
  }
  // Longest first, so the last task to start is a short one.
  const std::vector tasks(distinct.rbegin(), distinct.rend());
  parallel_for(tasks.size(), threads, [&](std::size_t i) {
    const auto& [insts, app, seed, is_profile] = tasks[i];
    if (is_profile) {
      profile(app);
    } else {
      single_ipc(app, seed);
    }
  });
}

core::MeTable Experiment::me_table_for(const Workload& w) {
  std::vector<double> me;
  me.reserve(w.cores());
  for (const trace::AppProfile& app : w.apps())
    me.push_back(profile(app.name).memory_efficiency);
  return core::MeTable(std::move(me));
}

WorkloadRun Experiment::run(const Workload& w, const std::string& scheme_name) {
  const auto apps = w.apps();
  const std::uint32_t n = w.cores();
  const std::uint32_t repeats = std::max(1u, cfg_.eval_repeats);

  core::SchedulerArgs args;
  args.core_count = n;
  args.me = me_table_for(w);
  args.cpu_hz = cfg_.base.cpu_hz();
  args.table_bits = cfg_.table_bits;
  args.epoch_cpu_cycles =
      static_cast<double>(cfg_.base.epoch_ticks) * cfg_.base.cpu_ratio;
  args.ipc_single.reserve(n);
  for (const trace::AppProfile& app : apps)
    args.ipc_single.push_back(single_ipc(app.name, cfg_.eval_seed));

  WorkloadRun out;
  out.workload = w.name;
  out.ipc_multi.assign(n, 0.0);
  out.ipc_single.assign(n, 0.0);
  out.core_read_latency_cpu.assign(n, 0.0);

  for (std::uint32_t rep = 0; rep < repeats; ++rep) {
    const std::uint64_t seed = slice_seed(rep);
    // A fresh scheduler per slice: stateful schemes (RR token, online ME)
    // must not carry state across independent slices.
    sched::SchedulerPtr scheduler = core::make_scheduler(scheme_name, args);
    out.scheme = scheduler->name();

    MultiCoreSystem sys(config_for(n), apps, *scheduler, seed);
    const std::string ctx =
        "eval-" + w.name + "-" + scheme_name + "-rep" + std::to_string(rep);
    ckpt::ResumeInfo info;
    ckpt::CheckpointPolicy policy = policy_for(ctx, &info);
    // A sweep deletes a point's snapshots as soon as the point lands, so
    // nothing reads the last slice's finished snapshot there; a snapshot
    // when its warm-up ends is what a killed point resumes from when the
    // slice is shorter than one interval. (A re-run of a finished
    // experiment re-simulates that slice's measurement from it.)
    if (rep + 1 == repeats) policy.milestone = ckpt::Milestone::kMeasurementStart;
    RunResult r = sys.run(cfg_.eval_insts, cfg_.warmup_insts, cfg_.max_ticks, policy);
    report_snapshot_fallback(ctx, info);
    if (r.hit_tick_limit) {
      throw CycleBudgetError("evaluation run " + w.name + "/" + scheme_name +
                                 " (slice " + std::to_string(rep) + ") hit the " +
                                 std::to_string(cfg_.max_ticks) + "-tick budget",
                             cfg_.max_ticks);
    }

    std::vector<double> ipc_multi(n), ipc_single(n);
    for (std::uint32_t c = 0; c < n; ++c) {
      ipc_multi[c] = r.cores[c].ipc;
      ipc_single[c] = single_ipc(apps[c].name, seed);
      out.ipc_multi[c] += ipc_multi[c];
      out.ipc_single[c] += ipc_single[c];
      out.core_read_latency_cpu[c] += r.cores[c].avg_read_latency_cpu;
    }
    out.smt_speedup += smt_speedup(ipc_multi, ipc_single);
    out.unfairness += unfairness(ipc_multi, ipc_single);
    out.avg_read_latency_cpu += r.avg_read_latency_cpu;
    out.row_hit_rate += r.row_hit_rate;
    out.bus_utilization += r.data_bus_utilization;
    if (rep + 1 == repeats) out.raw = std::move(r);
  }

  const double inv = 1.0 / repeats;
  out.smt_speedup *= inv;
  out.unfairness *= inv;
  out.avg_read_latency_cpu *= inv;
  out.row_hit_rate *= inv;
  out.bus_utilization *= inv;
  for (std::uint32_t c = 0; c < n; ++c) {
    out.ipc_multi[c] *= inv;
    out.ipc_single[c] *= inv;
    out.core_read_latency_cpu[c] *= inv;
  }
  return out;
}

}  // namespace memsched::sim
