#include "serve/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "ckpt/signal.hpp"
#include "harness/exit_codes.hpp"
#include "harness/grid.hpp"
#include "harness/orchestrator.hpp"
#include "serve/wire.hpp"
#include "util/atomic_file.hpp"
#include "util/backoff.hpp"
#include "util/config.hpp"

namespace fs = std::filesystem;

namespace memsched::serve {

namespace {

/// Parses a submitted spec (newline-separated key=value lines) into a
/// Config. Returns an error string, or empty on success.
std::string config_from_spec(const std::string& spec, util::Config* out) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t nl = spec.find('\n', pos);
    if (nl == std::string::npos) nl = spec.size();
    std::string_view line(spec.data() + pos, nl - pos);
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (!line.empty()) {
      if (auto err = out->parse_token(line)) return *err;
    }
    pos = nl + 1;
  }
  return {};
}

util::Json error_reply(const std::string& message) {
  util::Json resp = util::Json::object();
  resp["ok"] = false;
  resp["error"] = message;
  return resp;
}

std::string describe_exit(int code) {
  return std::string("runner exited ") + std::to_string(code) + " (" +
         harness::exit_category(code) + ")";
}

std::string describe_status(int status) {
  if (WIFEXITED(status)) return describe_exit(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    return std::string("runner killed by signal ") + std::to_string(WTERMSIG(status));
  }
  return "runner ended abnormally";
}

void set_socket_timeouts(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

}  // namespace

Daemon::Daemon(ServeConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.cache_dir.empty()) cfg_.cache_dir = cfg_.state_dir + "/cache";
  if (cfg_.workers == 0) cfg_.workers = 1;
}

Daemon::~Daemon() {
  for (auto& [pid, runner] : runners_) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

std::string Daemon::job_dir(std::uint64_t id) const {
  return cfg_.state_dir + "/jobs/job-" + std::to_string(id);
}

std::string Daemon::report_path(std::uint64_t id) const {
  return job_dir(id) + "/report.json";
}

double Daemon::heartbeat_timeout() const {
  if (cfg_.heartbeat_timeout_seconds > 0.0) return cfg_.heartbeat_timeout_seconds;
  return cfg_.point_timeout_seconds + 60.0;
}

bool Daemon::start() {
  // A daemon writing a reply to a client that already hung up must get
  // EPIPE, not die.
  std::signal(SIGPIPE, SIG_IGN);

  queue_ = std::make_unique<JobQueue>(cfg_.state_dir + "/queue", cfg_.queue_faults,
                                      cfg_.verbose);
  if (!queue_->open()) {
    error_ = queue_->error();
    return false;
  }

  // Crash recovery: a job recorded "running" belonged to a runner of a dead
  // daemon incarnation. Its in-flight points are parked in the job's
  // manifest/checkpoints; re-dispatching resumes them.
  for (const QueueRecord* rec : queue_->jobs()) {
    if (rec->state == JobState::kRunning) queue_->requeue(rec->id);
  }

  std::error_code ec;
  fs::create_directories(cfg_.state_dir + "/jobs", ec);
  if (ec) {
    error_ = "cannot create " + cfg_.state_dir + "/jobs: " + ec.message();
    return false;
  }

  listener_ = util::unix_listen(cfg_.socket_path);
  if (!listener_.valid()) {
    error_ = "cannot listen on " + cfg_.socket_path + ": " + std::strerror(errno);
    return false;
  }

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    error_ = std::string("cannot create stop pipe: ") + std::strerror(errno);
    return false;
  }
  stop_pipe_r_ = util::Fd(fds[0]);
  stop_pipe_w_ = util::Fd(fds[1]);

  if (cfg_.verbose) {
    std::fprintf(stderr,
                 "memsched_served: listening on %s (%zu job(s) recovered, "
                 "workers=%u, jobs=%u)\n",
                 cfg_.socket_path.c_str(), queue_->jobs().size(), cfg_.workers,
                 cfg_.jobs);
  }
  return true;
}

void Daemon::request_stop() {
  const char b = 1;
  if (stop_pipe_w_.valid()) (void)!::write(stop_pipe_w_.get(), &b, 1);
}

int Daemon::run() {
  while (poll_once(200)) {
  }
  return exit_code_;
}

bool Daemon::poll_once(int timeout_ms) {
  if (stopping_) return false;

  std::vector<pollfd> fds;
  fds.push_back({listener_.get(), POLLIN, 0});
  fds.push_back({stop_pipe_r_.get(), POLLIN, 0});
  if (cfg_.stop_fd >= 0) fds.push_back({cfg_.stop_fd, POLLIN, 0});
  const std::size_t first_runner = fds.size();
  for (auto& [pid, runner] : runners_) {
    fds.push_back({runner.heartbeat.get(), POLLIN, 0});
  }

  const int rc = ::poll(fds.data(), fds.size(), timeout_ms);

  const bool stop_signalled =
      (cfg_.stop != nullptr && *cfg_.stop != 0) ||
      (fds[1].revents & POLLIN) != 0 ||
      (cfg_.stop_fd >= 0 && (fds[2].revents & POLLIN) != 0);
  if (stop_signalled) {
    graceful_drain(harness::kExitInterrupted);
    return false;
  }

  if (rc > 0) {
    // Drain heartbeats before liveness checks: a byte in flight is a beat.
    std::size_t slot = first_runner;
    for (auto& [pid, runner] : runners_) {
      if ((fds[slot].revents & (POLLIN | POLLHUP)) != 0) {
        char buf[64];
        while (::read(runner.heartbeat.get(), buf, sizeof buf) > 0) {
        }
        runner.last_beat = util::monotonic_now();
      }
      ++slot;
    }
  }

  reap_runners();
  kill_stale_runners();

  if (rc > 0 && (fds[0].revents & POLLIN) != 0) handle_client();

  dispatch();

  if (draining_ && runners_.empty()) {
    exit_code_ = 0;
    stopping_ = true;
    return false;
  }
  return true;
}

void Daemon::graceful_drain(int code) {
  stopping_ = true;
  exit_code_ = code;
  if (cfg_.verbose) {
    std::fprintf(stderr, "memsched_served: graceful stop (%zu runner(s) in flight)\n",
                 runners_.size());
  }
  for (auto& [pid, runner] : runners_) ::kill(pid, SIGTERM);

  // Bounded wait for the runners to park their points and exit. A runner
  // that outlives the deadline is wedged; SIGKILL it — its job's manifest
  // has every completed point, so nothing is lost.
  const util::MonotonicTime deadline =
      util::monotonic_now() + util::seconds_to_duration(heartbeat_timeout());
  while (!runners_.empty() && util::monotonic_now() < deadline) {
    reap_runners();
    if (runners_.empty()) break;
    ::usleep(50 * 1000);
  }
  for (auto& [pid, runner] : runners_) ::kill(pid, SIGKILL);
  reap_runners();
  while (!runners_.empty()) {
    ::usleep(10 * 1000);
    reap_runners();
  }
}

void Daemon::reap_runners() {
  for (;;) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) break;
    auto it = runners_.find(pid);
    if (it == runners_.end()) continue;  // orchestrator grandchild leak; ignore
    const std::uint64_t id = it->second.job_id;
    runners_.erase(it);
    conclude_job(id, WIFEXITED(status) ? WEXITSTATUS(status) : -1,
                 describe_status(status));
  }
}

void Daemon::kill_stale_runners() {
  const util::MonotonicTime now = util::monotonic_now();
  const double limit = heartbeat_timeout();
  for (auto it = runners_.begin(); it != runners_.end();) {
    if (util::seconds_between(it->second.last_beat, now) <= limit) {
      ++it;
      continue;
    }
    const pid_t pid = it->first;
    const std::uint64_t id = it->second.job_id;
    it = runners_.erase(it);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    conclude_job(id, -1, "heartbeat timeout (runner wedged)");
  }
}

void Daemon::conclude_job(std::uint64_t id, int code, const std::string& diagnosis) {
  const QueueRecord* rec = queue_->find(id);
  if (rec == nullptr) return;
  if (rec->state == JobState::kCancelled) return;  // cancelled while running

  if (code == harness::kExitOk) {
    queue_->mark_done(id);
    retry_after_.erase(id);
    if (cfg_.verbose) {
      std::fprintf(stderr, "memsched_served: job %llu done\n",
                   static_cast<unsigned long long>(id));
    }
    return;
  }
  if (code == harness::kExitInterrupted) {
    // Graceful park (daemon drain, or an operator signalling the runner):
    // not a failure, the attempt doesn't burn retry budget semantics — the
    // job simply returns to the queue with its checkpoints intact.
    queue_->requeue(id);
    return;
  }

  if (rec->attempts >= cfg_.max_attempts) {
    queue_->mark_failed(id, diagnosis);
    retry_after_.erase(id);
    std::fprintf(stderr, "memsched_served: job %llu failed permanently: %s\n",
                 static_cast<unsigned long long>(id), diagnosis.c_str());
    return;
  }
  queue_->requeue(id);
  const util::Backoff backoff{cfg_.backoff_seconds, 60.0};
  retry_after_[id] = backoff.ready_at(util::monotonic_now(), rec->attempts);
  if (cfg_.verbose) {
    std::fprintf(stderr, "memsched_served: job %llu attempt %u failed (%s); retrying\n",
                 static_cast<unsigned long long>(id), rec->attempts, diagnosis.c_str());
  }
}

void Daemon::dispatch() {
  if (draining_ || stopping_) return;
  const util::MonotonicTime now = util::monotonic_now();
  while (runners_.size() < cfg_.workers) {
    const QueueRecord* pick = nullptr;
    for (const QueueRecord* rec : queue_->jobs()) {
      if (rec->state != JobState::kQueued) continue;
      auto it = retry_after_.find(rec->id);
      if (it != retry_after_.end() && now < it->second) continue;
      pick = rec;
      break;
    }
    if (pick == nullptr) break;
    if (cfg_.inline_exec) {
      run_job_inline(pick->id);
    } else if (!spawn_runner(*pick)) {
      break;  // transient fork/pipe trouble; retry next loop
    }
  }
}

bool Daemon::spawn_runner(const QueueRecord& rec) {
  const std::uint64_t id = rec.id;
  std::error_code ec;
  fs::create_directories(job_dir(id), ec);
  if (ec) return false;

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return false;
  (void)::fcntl(fds[0], F_SETFL, O_NONBLOCK);

  // Durable BEFORE the fork: a crash between here and the reap recovers the
  // job as running -> requeued, never lost.
  queue_->mark_running(id);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    queue_->requeue(id);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    listener_.reset();  // the runner must never accept clients
    runner_child(id, fds[1]);
  }
  ::close(fds[1]);

  Runner runner;
  runner.pid = pid;
  runner.job_id = id;
  runner.heartbeat = util::Fd(fds[0]);
  runner.last_beat = util::monotonic_now();
  runners_[pid] = std::move(runner);
  if (cfg_.verbose) {
    std::fprintf(stderr, "memsched_served: job %llu dispatched (pid %d)\n",
                 static_cast<unsigned long long>(id), static_cast<int>(pid));
  }
  return true;
}

void Daemon::runner_child(std::uint64_t id, int heartbeat_fd) {
  // Fresh graceful-stop plumbing: the daemon forwards SIGTERM on drain and
  // the orchestrator parks in-flight points.
  ckpt::install_stop_handlers();
  std::signal(SIGPIPE, SIG_IGN);

#ifdef __linux__
  // A runner must not outlive its supervisor: a SIGKILLed daemon would
  // otherwise leave an orphan racing the restarted daemon's replacement
  // runner on the same job directory. SIGTERM, not SIGKILL — the orphan
  // parks its in-flight points before exiting.
  (void)::prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (::getppid() == 1) ::_exit(harness::kExitInterrupted);  // lost the race
#endif

  // Serialize with any predecessor still parking this job (an orphan of a
  // crashed daemon): the manifest must not have two writers. The lock fd is
  // held for the runner's lifetime and released by _exit.
  const int lock_fd =
      ::open((job_dir(id) + "/.lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd >= 0) (void)::flock(lock_fd, LOCK_EX);

  ::_exit(run_job(id, [heartbeat_fd](const harness::PointRecord&) {
    const char beat = 1;
    (void)!::write(heartbeat_fd, &beat, 1);
  }));
}

void Daemon::run_job_inline(std::uint64_t id) {
  std::error_code ec;
  fs::create_directories(job_dir(id), ec);
  queue_->mark_running(id);
  const int code = run_job(id, nullptr);
  conclude_job(id, code, describe_exit(code));
}

int Daemon::run_job(std::uint64_t id,
                    const std::function<void(const harness::PointRecord&)>& on_record) {
  try {
    const QueueRecord* rec = queue_->find(id);
    if (rec == nullptr) return harness::kExitInternal;

    util::Config cli;
    if (!config_from_spec(rec->spec, &cli).empty()) return harness::kExitUsage;
    const harness::GridSpec grid = harness::grid_from_config(cli);

    harness::OrchestratorConfig oc;
    oc.manifest_path = job_dir(id) + "/manifest.json";
    // Full sweep identity for the manifest and report (bytes must match the
    // CLI sweep tool); point-independent identity for the cache so grids
    // sharing a configuration share entries.
    oc.fingerprint = harness::fingerprint(grid);
    oc.cache_fingerprint = harness::config_fingerprint(grid);
    oc.work_dir = job_dir(id) + "/work";
    oc.timeout_seconds = cfg_.point_timeout_seconds;
    oc.max_attempts = 2;
    oc.backoff_seconds = 0.2;
    oc.cache_dir = cfg_.cache_dir;
    oc.isolate = !cfg_.inline_exec;  // a threaded test process must not fork
    oc.verbose = cfg_.verbose;
    oc.jobs = cfg_.jobs;
    // A forked runner installed its own stop handlers.
    oc.stop = cfg_.inline_exec ? cfg_.stop : &ckpt::stop_flag();
    oc.on_record = on_record;

    // First beat up front: "alive and parsing" is distinguishable from
    // "wedged before the first point".
    if (oc.on_record) oc.on_record(harness::PointRecord{});

    harness::Orchestrator orch(oc);
    const harness::SweepSummary summary = orch.run(harness::grid_points(grid));
    if (summary.interrupted) return harness::kExitInterrupted;
    if (!summary.complete()) return harness::kExitInternal;

    util::atomic_write_file(report_path(id), orch.report().dump(2) + "\n");
    return harness::kExitOk;
  } catch (const std::invalid_argument&) {
    return harness::kExitUsage;
  } catch (...) {
    return harness::kExitInternal;
  }
}

void Daemon::handle_client() {
  util::Fd conn = util::unix_accept(listener_.get());
  if (!conn.valid()) return;
  set_socket_timeouts(conn.get(), 5);

  std::vector<std::uint8_t> payload;
  std::string err;
  if (!read_message(conn.get(), &payload, &err)) return;

  util::Json resp;
  std::string extra_frame;
  try {
    const util::Json req = util::Json::parse(
        std::string_view(reinterpret_cast<const char*>(payload.data()), payload.size()));
    resp = handle_request(req, &extra_frame);
  } catch (const std::exception& e) {
    resp = error_reply(std::string("malformed request: ") + e.what());
  }

  if (!write_json(conn.get(), resp)) return;
  if (!extra_frame.empty()) {
    const std::vector<std::uint8_t> bytes(extra_frame.begin(), extra_frame.end());
    (void)write_message(conn.get(), bytes);
  }
}

util::Json Daemon::handle_request(const util::Json& req, std::string* extra_frame) {
  const util::Json* cmd = req.find("cmd");
  if (cmd == nullptr || !cmd->is_string()) return error_reply("missing cmd");
  const std::string& name = cmd->as_string();

  if (name == "ping") {
    util::Json resp = util::Json::object();
    resp["ok"] = true;
    resp["pid"] = static_cast<std::int64_t>(::getpid());
    resp["degraded"] = queue_->degraded();
    resp["active"] = static_cast<std::uint64_t>(runners_.size());
    return resp;
  }
  if (name == "submit") return handle_submit(req);
  if (name == "cancel") return handle_cancel(req);

  if (name == "status") {
    util::Json resp = util::Json::object();
    resp["ok"] = true;
    const util::Json* want = req.find("id");
    util::Json jobs = util::Json::array();
    for (const QueueRecord* rec : queue_->jobs()) {
      if (want != nullptr && rec->id != want->as_uint()) continue;
      util::Json j = util::Json::object();
      j["id"] = rec->id;
      j["state"] = job_state_name(rec->state);
      j["attempts"] = rec->attempts;
      if (!rec->error.empty()) j["error"] = rec->error;
      jobs.push_back(std::move(j));
    }
    if (want != nullptr && jobs.size() == 0) return error_reply("no such job");
    resp["jobs"] = std::move(jobs);
    return resp;
  }

  if (name == "result") {
    const util::Json* id_field = req.find("id");
    if (id_field == nullptr) return error_reply("result: missing id");
    const QueueRecord* rec = queue_->find(id_field->as_uint());
    if (rec == nullptr) return error_reply("no such job");
    if (rec->state == JobState::kFailed) {
      return error_reply("job failed: " + rec->error);
    }
    if (rec->state != JobState::kDone) {
      return error_reply(std::string("job is ") + job_state_name(rec->state));
    }
    if (const int err = util::read_file(report_path(rec->id), *extra_frame); err != 0) {
      return error_reply(std::string("cannot read report: ") + std::strerror(err));
    }
    util::Json resp = util::Json::object();
    resp["ok"] = true;
    resp["bytes"] = static_cast<std::uint64_t>(extra_frame->size());
    return resp;
  }

  if (name == "drain") {
    draining_ = true;
    util::Json resp = util::Json::object();
    resp["ok"] = true;
    resp["active"] = static_cast<std::uint64_t>(runners_.size());
    return resp;
  }

  return error_reply("unknown cmd: " + name);
}

util::Json Daemon::handle_submit(const util::Json& req) {
  const util::Json* spec_field = req.find("spec");
  if (spec_field == nullptr || !spec_field->is_string()) {
    return error_reply("submit: missing spec");
  }
  const std::string& spec_text = spec_field->as_string();

  util::Config cli;
  if (std::string err = config_from_spec(spec_text, &cli); !err.empty()) {
    return error_reply("submit: " + err);
  }
  if (auto unknown = cli.check_known(harness::grid_keys(), {"fault."})) {
    return error_reply("submit: " + *unknown);
  }

  std::string key;
  try {
    key = harness::fingerprint(harness::grid_from_config(cli));
  } catch (const std::exception& e) {
    return error_reply(std::string("submit: ") + e.what());
  }

  const JobQueue::SubmitResult res = queue_->submit(key, spec_text);
  const QueueRecord* rec = queue_->find(res.id);
  util::Json resp = util::Json::object();
  resp["ok"] = true;
  resp["id"] = res.id;
  resp["duplicate"] = res.duplicate;
  resp["state"] = job_state_name(rec->state);
  resp["degraded"] = queue_->degraded();
  return resp;
}

util::Json Daemon::handle_cancel(const util::Json& req) {
  const util::Json* id_field = req.find("id");
  if (id_field == nullptr) return error_reply("cancel: missing id");
  const std::uint64_t id = id_field->as_uint();
  const QueueRecord* rec = queue_->find(id);
  if (rec == nullptr) return error_reply("no such job");
  if (rec->state == JobState::kDone || rec->state == JobState::kFailed ||
      rec->state == JobState::kCancelled) {
    return error_reply(std::string("job already ") + job_state_name(rec->state));
  }
  if (rec->state == JobState::kRunning) {
    for (auto& [pid, runner] : runners_) {
      if (runner.job_id == id) {
        ::kill(pid, SIGTERM);
        break;
      }
    }
  }
  queue_->mark_cancelled(id);
  retry_after_.erase(id);
  util::Json resp = util::Json::object();
  resp["ok"] = true;
  resp["state"] = "cancelled";
  return resp;
}

}  // namespace memsched::serve
