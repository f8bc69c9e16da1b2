#include "harness/grid.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "ckpt/signal.hpp"
#include "harness/fingerprint.hpp"
#include "sim/engine.hpp"
#include "sim/workloads.hpp"
#include "util/config.hpp"

namespace memsched::harness {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t end = csv.find(',', begin);
    const std::string item =
        csv.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
    if (!item.empty()) out.push_back(item);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return out;
}

const std::vector<std::string_view>& grid_keys() {
  static const std::vector<std::string_view> kKeys = {
      "workloads",     "schemes", "insts",   "repeats",         "warmup",
      "profile_insts", "seed",    "profile_seed", "interleave", "engine",
      "verify",        "progress_window",    "ckpt",           "ckpt_interval",
      "fault"};
  return kKeys;
}

GridSpec grid_from_config(const util::Config& cli) {
  GridSpec spec;
  sim::ExperimentConfig& cfg = spec.cfg;
  // Smoke-sized slices by default; every other default is ExperimentConfig's.
  cfg.eval_insts = 30'000;
  cfg.eval_repeats = 1;
  cfg.profile_insts = 80'000;
  sim::read_experiment_keys(cli, cfg);
  // Per-point checkpointing defaults on, except for engine=sampled, which
  // cannot checkpoint; degraded off under verify= (the auditor's shadow
  // state is not serialized, so the pair is incompatible).
  spec.ckpt_on = cli.get_bool("ckpt", cfg.base.engine != sim::Engine::kSampled) &&
                 !cfg.base.audit.enabled;
  spec.ckpt_interval = cli.get_uint("ckpt_interval", 1'000'000);

  mc::FaultConfig& fault = spec.fault;
  fault.enabled = cli.get_bool("fault", false);
  fault.seed = cli.get_uint("fault.seed", fault.seed);
  fault.drop_read_prob = cli.get_double("fault.drop_read", 0.0);
  fault.drop_write_prob = cli.get_double("fault.drop_write", 0.0);
  fault.dup_prob = cli.get_double("fault.dup", 0.0);
  fault.delay_prob = cli.get_double("fault.delay", 0.0);
  fault.delay_ticks_max =
      static_cast<std::uint32_t>(cli.get_uint("fault.delay_max", fault.delay_ticks_max));
  fault.stall_prob = cli.get_double("fault.stall", 0.0);
  fault.stall_ticks =
      static_cast<std::uint32_t>(cli.get_uint("fault.stall_ticks", fault.stall_ticks));
  if (const std::string err = fault.validate(); !err.empty())
    throw std::invalid_argument("fault config: " + err);

  spec.workloads_csv = cli.get_string("workloads", "2MEM-1");
  spec.schemes_csv = cli.get_string("schemes", "HF-RF,ME-LREQ");
  spec.fault_points_csv = cli.get_string("fault.points", "");
  spec.workloads = split_csv(spec.workloads_csv);
  spec.schemes = split_csv(spec.schemes_csv);
  if (spec.workloads.empty() || spec.schemes.empty())
    throw std::invalid_argument("grid needs at least one workload and one scheme");
  return spec;
}

std::string fingerprint(const GridSpec& spec) {
  return grid_fingerprint(spec.cfg, spec.workloads_csv, spec.schemes_csv, spec.fault,
                          spec.fault_points_csv);
}

std::string config_fingerprint(const GridSpec& spec) {
  return grid_config_fingerprint(spec.cfg, spec.fault, spec.fault_points_csv);
}

namespace {

/// What every point of one grid shares: the grid definition, and the run's
/// single-core reference table while Orchestrator::run has one installed.
/// Point bodies build their configuration and resolve their workload when
/// they execute, so grid_points stays cheap.
class GridState final : public SharedWork {
 public:
  explicit GridState(const GridSpec& spec)
      : spec_(spec), fault_points_(split_csv(spec.fault_points_csv)) {}

  /// Whether fault injection targets `point_name`.
  [[nodiscard]] bool chaos(const std::string& point_name) const {
    if (!spec_.fault.enabled) return false;
    if (fault_points_.empty()) return true;
    return std::find(fault_points_.begin(), fault_points_.end(), point_name) !=
           fault_points_.end();
  }

  [[nodiscard]] util::Json run_point(const std::string& wname, const std::string& scheme,
                                     bool chaos, const std::string& ckpt_dir) const {
    sim::Experiment exp(experiment_config(chaos, ckpt_dir), refs_);
    const sim::Workload w = sim::resolve_workload(wname);
    const sim::WorkloadRun r = exp.run(w, scheme);
    util::Json payload = util::Json::object();
    payload["workload"] = w.name;
    payload["scheme"] = r.scheme;
    payload["fault_injected"] = chaos;
    payload["smt_speedup"] = r.smt_speedup;
    payload["unfairness"] = r.unfairness;
    payload["avg_read_latency_cpu"] = r.avg_read_latency_cpu;
    payload["row_hit_rate"] = r.row_hit_rate;
    payload["bus_utilization"] = r.bus_utilization;
    return payload;
  }

  /// The references of every named point's workload. Chaos points are left
  /// out: a faulted configuration keys its references apart, so those
  /// points simulate their own.
  void compute(const std::vector<std::string>& points, std::uint32_t threads,
               const std::string& ckpt_dir, const std::string& out_path) const override {
    std::vector<std::string> names;
    for (const std::string& point : points) {
      if (!chaos(point)) names.push_back(point.substr(0, point.rfind('/')));
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    std::vector<sim::Workload> workloads;
    workloads.reserve(names.size());
    for (const std::string& name : names)
      workloads.push_back(sim::resolve_workload(name));
    const auto refs = std::make_shared<sim::ReferenceTable>();
    sim::Experiment exp(experiment_config(false, spec_.ckpt_on ? ckpt_dir : ""), refs);
    exp.compute_references(workloads, threads);
    refs->save(out_path);
  }

  std::size_t install(const std::string& path) override {
    auto refs = std::make_shared<sim::ReferenceTable>();
    const std::size_t n = refs->load(path);
    refs_ = std::move(refs);
    return n;
  }

  void release() override { refs_.reset(); }

 private:
  [[nodiscard]] sim::ExperimentConfig experiment_config(
      bool chaos, const std::string& ckpt_dir) const {
    sim::ExperimentConfig cfg = spec_.cfg;
    if (chaos) {
      cfg.base.fault = spec_.fault;
      // Record-mode audit: induced corruption should be *counted* by the
      // verification layer, not abort the child before the watchdogs get
      // to demonstrate containment.
      cfg.base.audit.abort_on_violation = false;
    }
    if (!ckpt_dir.empty()) {
      cfg.ckpt_dir = ckpt_dir;
      cfg.ckpt_interval = spec_.ckpt_interval;
      cfg.ckpt_stop = &ckpt::stop_flag();
    }
    return cfg;
  }

  GridSpec spec_;
  std::vector<std::string> fault_points_;
  std::shared_ptr<sim::ReferenceTable> refs_;
};

}  // namespace

std::vector<PointSpec> grid_points(const GridSpec& spec) {
  const auto state = std::make_shared<GridState>(spec);
  std::vector<PointSpec> points;
  points.reserve(spec.workloads.size() * spec.schemes.size());
  for (const std::string& wname : spec.workloads) {
    // Dispatch hint for the parallel executor: simulated work scales with
    // instruction count x cores (workload names lead with the core count,
    // "4MEM-1" = 4 cores). Replaced by measured wall time once a timing
    // sidecar exists; a wrong hint only costs wall clock.
    const double cores = (wname.empty() || wname[0] < '1' || wname[0] > '9')
                             ? 1.0
                             : static_cast<double>(wname[0] - '0');
    const double cost_hint = static_cast<double>(spec.cfg.eval_insts) * cores *
                             static_cast<double>(spec.cfg.eval_repeats);
    for (const std::string& scheme : spec.schemes) {
      PointSpec p;
      p.name = wname + "/" + scheme;
      p.cost_hint = cost_hint;
      p.shared = state;
      const bool chaos = state->chaos(p.name);
      if (spec.ckpt_on) {
        p.body_ckpt = [state, wname, scheme, chaos](const std::string& ckpt_dir) {
          return state->run_point(wname, scheme, chaos, ckpt_dir);
        };
      } else {
        p.body = [state, wname, scheme, chaos] {
          return state->run_point(wname, scheme, chaos, std::string{});
        };
      }
      points.push_back(std::move(p));
    }
  }
  return points;
}

}  // namespace memsched::harness
