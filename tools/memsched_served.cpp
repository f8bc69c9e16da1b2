// memsched_served — the crash-safe sweep daemon.
//
//   memsched_served start socket=PATH state=DIR [cache=DIR] [workers=N]
//                   [jobs=N] [timeout=SECONDS] [hb_timeout=SECONDS]
//                   [attempts=N] [backoff=SECONDS] [quiet=0|1]
//       Run the daemon in the foreground: recover the durable job queue,
//       listen for submissions (memsched_submitctl), dispatch jobs through
//       supervised runner processes. SIGTERM drains gracefully — in-flight
//       points park in checkpoints, jobs return to the queue, exit code 6 —
//       and a restart resumes with byte-identical results.
//   memsched_served check state=DIR
//       Recover the queue exactly like start would (replay, torn-tail
//       truncation) and print every job's state. Exits 1 if any bytes had
//       to be truncated or the queue is degraded.
//
// MEMSCHED_FSFAULT ("seed=N,short_write=P,enospc=P,eio=P,bitflip=P") arms
// deterministic fault injection around the queue's file I/O only — the
// chaos harness for the degraded-mode paths.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "ckpt/signal.hpp"
#include "harness/guarded_main.hpp"
#include "serve/daemon.hpp"
#include "util/config.hpp"
#include "util/fs_fault.hpp"

using namespace memsched;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: memsched_served <start|check> [key=value...]\n"
               "  start  socket=PATH state=DIR [cache=DIR] [workers=N] [jobs=N]\n"
               "         [timeout=SECONDS] [hb_timeout=SECONDS] [attempts=N]\n"
               "         [backoff=SECONDS] [quiet=0|1]\n"
               "  check  state=DIR\n");
  throw std::invalid_argument("bad served command line");
}

int cmd_start(const util::Config& cli) {
  if (const auto err = cli.check_known({"socket", "state", "cache", "workers",
                                        "jobs", "timeout", "hb_timeout", "attempts",
                                        "backoff", "quiet"})) {
    throw std::invalid_argument(*err);
  }
  serve::ServeConfig cfg;
  cfg.socket_path = cli.get_string("socket", "");
  cfg.state_dir = cli.get_string("state", "");
  if (cfg.socket_path.empty() || cfg.state_dir.empty()) return usage();
  cfg.cache_dir = cli.get_string("cache", "");
  cfg.workers = static_cast<std::uint32_t>(cli.get_uint("workers", 1));
  cfg.jobs = static_cast<std::uint32_t>(cli.get_uint("jobs", 1));
  cfg.point_timeout_seconds = cli.get_double("timeout", 300.0);
  cfg.heartbeat_timeout_seconds = cli.get_double("hb_timeout", 0.0);
  cfg.max_attempts = static_cast<std::uint32_t>(cli.get_uint("attempts", 3));
  cfg.backoff_seconds = cli.get_double("backoff", 0.5);
  cfg.verbose = !cli.get_bool("quiet", false);
  cfg.stop = &ckpt::stop_flag();
  cfg.stop_fd = ckpt::stop_pipe_fd();
  cfg.queue_faults = util::env_fs_faults();

  serve::Daemon daemon(cfg);
  if (!daemon.start()) {
    std::fprintf(stderr, "memsched_served: %s\n", daemon.error().c_str());
    return 5;
  }
  return daemon.run();
}

int cmd_check(const util::Config& cli) {
  if (const auto err = cli.check_known({"state"})) throw std::invalid_argument(*err);
  const std::string state = cli.get_string("state", "");
  if (state.empty()) return usage();

  serve::JobQueue queue(state + "/queue", util::env_fs_faults());
  if (!queue.open()) {
    std::fprintf(stderr, "memsched_served: %s\n", queue.error().c_str());
    return 5;
  }
  for (const serve::QueueRecord* rec : queue.jobs()) {
    std::printf("job %llu  %-9s attempts=%u%s%s\n",
                static_cast<unsigned long long>(rec->id),
                serve::job_state_name(rec->state), rec->attempts,
                rec->error.empty() ? "" : "  error=", rec->error.c_str());
  }
  std::printf("check: %zu job(s), %zu record(s) replayed, %llu byte(s) truncated%s\n",
              queue.jobs().size(), queue.replayed(),
              static_cast<unsigned long long>(queue.truncated_bytes()),
              queue.degraded() ? " [DEGRADED]" : "");
  return (queue.truncated_bytes() > 0 || queue.degraded()) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main("memsched_served", [&] {
    // SIGTERM/SIGINT → graceful drain: runners park their in-flight points,
    // jobs return to the durable queue, exit code 6 (interrupted contract).
    ckpt::install_stop_handlers();
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    util::Config cli;
    if (auto err = cli.parse_args(argc - 1, argv + 1)) {
      std::fprintf(stderr, "%s\n", err->c_str());
      return usage();
    }
    if (cmd == "start") return cmd_start(cli);
    if (cmd == "check") return cmd_check(cli);
    std::fprintf(stderr, "memsched_served: unknown command '%s'%s\n", cmd.c_str(),
                 util::did_you_mean(cmd, {"start", "check"}).c_str());
    return usage();
  });
}
