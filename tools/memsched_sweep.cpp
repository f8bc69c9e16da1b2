// memsched_sweep — fault-tolerant experiment sweep orchestrator.
//
//   memsched_sweep grid [workloads=2MEM-1,4MEM-1] [schemes=HF-RF,ME-LREQ]
//                  [insts=N] [repeats=N] [seed=N] [manifest=path] [report=path]
//                  [timeout=SECONDS] [attempts=N] [fault=0|1] [fault.*=...]
//       Run every (workload, scheme) point as an isolated forked child under
//       a wall-clock watchdog; checkpoint the manifest after every point.
//   memsched_sweep benches [bindir=build/bench] [manifest=path] [report=path]
//       Run every registered paper-figure bench binary the same way.
//
// A killed sweep resumes from its manifest: completed points are replayed,
// the interrupted point re-runs, and the final report is byte-identical to
// an uninterrupted run. Failed points (bad config, livelock, budget, crash,
// timeout) are recorded, retried up to attempts=, then skipped — the rest of
// the sweep still completes and the report marks the gaps.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/signal.hpp"
#include "harness/bench_registry.hpp"
#include "harness/grid.hpp"
#include "harness/guarded_main.hpp"
#include "harness/orchestrator.hpp"
#include "util/config.hpp"
#include "util/fs_fault.hpp"

using namespace memsched;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: memsched_sweep <grid|benches> [key=value...]\n"
      "  grid     workloads=A,B,... schemes=S1,S2,... [insts=N] [repeats=N]\n"
      "           [warmup=N] [profile_insts=N] [seed=N] [profile_seed=N]\n"
      "           [interleave=hybrid|line|page] [engine=skip|cycle|sampled]\n"
      "           [verify=0|1] [progress_window=N] [ckpt=0|1] [ckpt_interval=N]\n"
      "           [fault=0|1] [fault.seed=N] [fault.drop_read=P] [fault.drop_write=P]\n"
      "           [fault.dup=P] [fault.delay=P] [fault.delay_max=N] [fault.stall=P]\n"
      "           [fault.stall_ticks=N] [fault.points=name1,name2,...]\n"
      "           ckpt defaults to 1, or 0 for engine=sampled (cannot checkpoint).\n"
      "  benches  [bindir=build/bench]\n"
      "  common   [manifest=path] [report=path] [timeout=seconds] [attempts=N]\n"
      "           [backoff=seconds] [isolate=0|1] [strict=0|1] [quiet=0|1]\n"
      "           [jobs=N | --jobs N] [cache=DIR | --cache DIR]\n"
      "           jobs=0 (default) = auto: MEMSCHED_JOBS env, else all cores.\n"
      "           Reports are byte-identical at any width.\n"
      "           cache= (or MEMSCHED_CACHE env) = content-addressed result\n"
      "           store: already-computed points splice in without re-running;\n"
      "           output bytes are identical to a cold run. Cache I/O errors\n"
      "           degrade to re-simulation, never a failed sweep.\n");
  throw std::invalid_argument("bad sweep command line");
}

harness::OrchestratorConfig orchestrator_from(const util::Config& cli,
                                              const std::string& fingerprint) {
  harness::OrchestratorConfig oc;
  oc.manifest_path = cli.get_string("manifest", "");
  oc.fingerprint = fingerprint;
  oc.timeout_seconds = cli.get_double("timeout", 300.0);
  oc.max_attempts = static_cast<std::uint32_t>(cli.get_uint("attempts", 1));
  oc.backoff_seconds = cli.get_double("backoff", 0.0);
  oc.isolate = cli.get_bool("isolate", true);
  oc.verbose = !cli.get_bool("quiet", false);
  // jobs=0 = auto (MEMSCHED_JOBS env, else hardware_concurrency); the
  // orchestrator resolves it. Parallelism never enters the fingerprint:
  // the sweep's identity — and its output bytes — are the same at any width.
  oc.jobs = static_cast<std::uint32_t>(cli.get_uint("jobs", 0));
  oc.stop = &ckpt::stop_flag();
  // cache= on the command line wins; MEMSCHED_CACHE is the fleet-wide
  // default (CI exports one shared store for every sweep invocation).
  oc.cache_dir = cli.get_string("cache", "");
  if (oc.cache_dir.empty()) {
    if (const char* env = std::getenv("MEMSCHED_CACHE"); env != nullptr) {
      oc.cache_dir = env;
    }
  }
  // MEMSCHED_FSFAULT chaos is armed around the result cache's I/O only.
  if (!oc.cache_dir.empty()) oc.cache_faults = util::env_fs_faults();
  return oc;
}

int finish(const util::Config& cli, harness::Orchestrator& orch,
           const harness::SweepSummary& s) {
  if (s.interrupted) {
    // Manifest is already checkpointed per point; the interrupted point's
    // snapshot is parked in its work dir. No report for a partial sweep.
    std::printf("sweep: interrupted; %zu points recorded, resume by re-running\n",
                orch.manifest().size());
    return harness::kExitInterrupted;
  }
  if (const std::string path = cli.get_string("report", ""); !path.empty()) {
    orch.report().write_file(path);
    // Wall-clock observability lives in a sidecar, never in the report:
    // the report must stay byte-identical across jobs= and resume history.
    orch.timing_report().write_file(path + ".timing.json");
    std::printf("report: %s\n", path.c_str());
  }
  std::printf("sweep: %zu points, %zu ok (%zu resumed), %zu failed "
              "[%.2f s wall, jobs=%u]\n",
              s.total, s.ok, s.resumed, s.failed, s.wall_ms / 1000.0, s.jobs);
  if (orch.result_cache() != nullptr) {
    // Separate line, never folded into the summary above: smoke scripts
    // pattern-match that line and warm runs must not perturb it.
    std::printf("cache: %zu hits\n", s.cache_hits);
  }
  for (const harness::PointRecord& r : orch.manifest().records()) {
    if (!r.ok()) {
      std::printf("  gap: %s (%s) %s\n", r.name.c_str(), r.status.c_str(),
                  r.error.c_str());
    }
  }
  // Graceful degradation: recorded-and-skipped failures are a *successful*
  // sweep unless strict= asks otherwise.
  if (cli.get_bool("strict", false) && s.failed > 0) return 1;
  return 0;
}

int cmd_grid(const util::Config& cli) {
  // Grid-definition vocabulary lives in harness::grid_keys(); this front end
  // adds its transport/orchestration keys on top. The daemon front end
  // (memsched_served) accepts the grid keys alone — same parser, same
  // defaults, same point bodies (harness/grid.cpp), so a submitted job and a
  // CLI sweep of the same definition produce identical result bytes.
  std::vector<std::string_view> known(harness::grid_keys());
  for (const char* k : {"manifest", "report", "timeout", "attempts", "backoff",
                        "isolate", "strict", "quiet", "jobs", "cache"}) {
    known.push_back(k);
  }
  if (const auto err = cli.check_known(known, {"fault."})) {
    throw std::invalid_argument(*err);
  }

  const harness::GridSpec spec = harness::grid_from_config(cli);

  // The fingerprint ties a manifest to the sweep definition; every knob that
  // changes a point's *result* belongs in it. grid_fingerprint builds it on
  // top of SystemConfig::fingerprint() so new simulator knobs (engine=, ...)
  // can never silently drop out of it again.
  harness::OrchestratorConfig oc = orchestrator_from(cli, harness::fingerprint(spec));
  // Cache entries key on the point-independent config identity, so CLI
  // sweeps and daemon jobs that share a configuration share cached points.
  oc.cache_fingerprint = harness::config_fingerprint(spec);
  harness::Orchestrator orch(std::move(oc));
  const harness::SweepSummary s = orch.run(harness::grid_points(spec));
  return finish(cli, orch, s);
}

int cmd_benches(const util::Config& cli) {
  if (const auto err = cli.check_known({"bindir", "manifest", "report", "timeout",
                                        "attempts", "backoff", "isolate",
                                        "strict", "quiet", "jobs", "cache"})) {
    throw std::invalid_argument(*err);
  }
  const std::string bindir = cli.get_string("bindir", "build/bench");

  std::vector<harness::PointSpec> points;
  std::string fp = "benches";
  for (const harness::BenchEntry& b : harness::bench_registry()) {
    harness::PointSpec p;
    p.name = b.name;
    p.cost_hint = b.cost_weight;
    p.argv.push_back(bindir + "/" + b.name);
    for (const std::string& a : b.smoke_args) p.argv.push_back(a);
    points.push_back(std::move(p));
    fp += "|" + b.name;
  }

  harness::Orchestrator orch(orchestrator_from(cli, fp));
  const harness::SweepSummary s = orch.run(points);
  return finish(cli, orch, s);
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("memsched_sweep", [&] {
    // SIGTERM/SIGINT → graceful stop: the running child checkpoints its
    // simulation state, the manifest keeps every completed point, and the
    // sweep exits with the "interrupted" contract code (6).
    ckpt::install_stop_handlers();
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    // The tool speaks key=value, but jobs and cache also get the
    // conventional flag spelling (--jobs N, --cache DIR) since that is what
    // every other build tool calls them; translate before parsing.
    std::vector<std::string> arg_store;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--jobs" && i + 1 < argc) {
        arg_store.push_back("jobs=" + std::string(argv[++i]));
      } else if (a.rfind("--jobs=", 0) == 0) {
        arg_store.push_back("jobs=" + a.substr(7));
      } else if (a == "--cache" && i + 1 < argc) {
        arg_store.push_back("cache=" + std::string(argv[++i]));
      } else if (a.rfind("--cache=", 0) == 0) {
        arg_store.push_back("cache=" + a.substr(8));
      } else {
        arg_store.push_back(a);
      }
    }
    std::vector<char*> args;
    args.push_back(argv[1]);  // parse_args skips the leading program slot
    for (std::string& a : arg_store) args.push_back(a.data());
    util::Config cli;
    if (auto err = cli.parse_args(static_cast<int>(args.size()), args.data())) {
      std::fprintf(stderr, "%s\n", err->c_str());
      return usage();
    }
    if (cmd == "grid") return cmd_grid(cli);
    if (cmd == "benches") return cmd_benches(cli);
    return usage();
  });
}
