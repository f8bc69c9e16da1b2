// The sweep daemon: a supervised, crash-safe sweep-as-a-service loop.
//
// One single-threaded poll() event loop owns four kinds of fds: the listening
// Unix-domain socket, the graceful-stop pipe, and one heartbeat pipe per live
// runner process. Clients connect, send one framed JSON request
// (submit/status/result/cancel/ping/drain), get one framed reply, and
// disconnect; nothing a client does can block the loop for long (per-client
// receive timeout).
//
// Jobs move through the durable JobQueue (job_queue.hpp). Dispatch forks one
// *runner* process per job (up to `workers` concurrent): the runner rebuilds
// the grid's PointSpecs (harness/grid.hpp) and drives them through the same
// Orchestrator the CLI sweep tool uses — same manifest checkpointing, same
// result cache, same byte-identical report contract. The runner heartbeats
// through the orchestrator's on_record hook, so the supervisor can tell "a
// long point is still converging" (orchestrator's own watchdog handles hung
// points) from "the runner itself is wedged" — a stale heartbeat gets the
// runner SIGKILLed and the job retried on a util::Backoff schedule, up to
// max_attempts, then parked as failed with a diagnosis.
//
// SIGTERM (or a drain request) is a *graceful* stop: runners are forwarded
// SIGTERM, their orchestrators park in-flight points in checkpoints, their
// jobs return to queued, and the daemon exits with the interrupted contract
// code (6). A restarted daemon replays the queue, re-dispatches, and — via
// the result cache and per-job manifests — produces reports byte-identical
// to an uninterrupted run.
#pragma once

#include <sys/types.h>

#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "serve/job_queue.hpp"
#include "util/json.hpp"
#include "util/unix_socket.hpp"
#include "util/wallclock.hpp"

namespace memsched::serve {

struct ServeConfig {
  std::string socket_path;  ///< Unix-domain socket the daemon listens on
  std::string state_dir;    ///< root for queue/, jobs/ and (by default) cache/

  /// Result cache shared with CLI sweeps; defaults to <state_dir>/cache.
  std::string cache_dir;

  std::uint32_t workers = 1;  ///< concurrent runner processes
  std::uint32_t jobs = 1;     ///< orchestrator pool width inside each runner

  double point_timeout_seconds = 300.0;  ///< orchestrator per-point watchdog

  /// Runner liveness deadline. Must exceed the per-point timeout (the
  /// orchestrator kills hung points itself; the supervisor only catches a
  /// wedged runner). 0 = auto: point timeout + 60s.
  double heartbeat_timeout_seconds = 0.0;

  std::uint32_t max_attempts = 3;  ///< runner attempts per job before failed
  double backoff_seconds = 0.5;    ///< util::Backoff base between attempts

  /// Run jobs synchronously inside the event loop instead of forking a
  /// runner. For unit tests (which are threaded and must not fork); the
  /// forked path is covered by the serve smoke script.
  bool inline_exec = false;

  bool verbose = true;

  /// Graceful-stop flag + pollable wake-up fd (typically ckpt::stop_flag()
  /// and ckpt::stop_pipe_fd(), installed by the tool's main).
  const volatile std::sig_atomic_t* stop = nullptr;
  int stop_fd = -1;

  /// Deterministic fault source armed around the job queue's file I/O only
  /// (MEMSCHED_FSFAULT in memsched_served).
  util::FsFaultHooks* queue_faults = nullptr;
};

class Daemon {
 public:
  explicit Daemon(ServeConfig cfg);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Opens (and recovers) the queue and binds the socket. False + error()
  /// on failure. A degraded queue does NOT fail start — the daemon serves
  /// from memory and heals when the filesystem does.
  bool start();

  [[nodiscard]] const std::string& error() const { return error_; }

  /// Event loop until a graceful stop (exit code 6), a drain request
  /// (exit code 0), or an unrecoverable internal error (exit code 5).
  int run();

  /// Thread-safe graceful-stop request (same path as SIGTERM). For tests.
  void request_stop();

  [[nodiscard]] const JobQueue& queue() const { return *queue_; }

  /// Where job `id`'s final report lands.
  [[nodiscard]] std::string report_path(std::uint64_t id) const;

  /// One poll()+housekeeping iteration; exposed for tests driving the loop
  /// manually. Returns false once the loop should exit (exit_code() set).
  bool poll_once(int timeout_ms);

  [[nodiscard]] int exit_code() const { return exit_code_; }

 private:
  struct Runner {
    pid_t pid = -1;
    std::uint64_t job_id = 0;
    util::Fd heartbeat;  ///< read end; runner holds the write end
    util::MonotonicTime last_beat;
  };

  void handle_client();
  [[nodiscard]] util::Json handle_request(const util::Json& req,
                                          std::string* extra_frame);
  [[nodiscard]] util::Json handle_submit(const util::Json& req);
  [[nodiscard]] util::Json handle_cancel(const util::Json& req);

  void dispatch();
  bool spawn_runner(const QueueRecord& rec);
  void run_job_inline(std::uint64_t id);
  [[noreturn]] void runner_child(std::uint64_t id, int heartbeat_fd);
  void reap_runners();
  void conclude_runner(const Runner& runner, int status, bool wedged);
  void kill_stale_runners();
  void graceful_drain(int code);

  [[nodiscard]] std::string job_dir(std::uint64_t id) const;
  [[nodiscard]] double heartbeat_timeout() const;

  ServeConfig cfg_;
  std::unique_ptr<JobQueue> queue_;
  util::Fd listener_;
  util::Fd stop_pipe_r_;  ///< internal request_stop() pipe (read end)
  util::Fd stop_pipe_w_;
  std::map<pid_t, Runner> runners_;
  std::map<std::uint64_t, util::MonotonicTime> retry_after_;
  bool draining_ = false;
  bool stopping_ = false;
  int exit_code_ = 0;
  std::string error_;
};

}  // namespace memsched::serve
