#include "harness/orchestrator.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "cache/result_cache.hpp"
#include "ckpt/snapshot.hpp"
#include "harness/guarded_main.hpp"
#include "sim/runner.hpp"
#include "util/atomic_file.hpp"
#include "util/progress.hpp"
#include "util/wallclock.hpp"

namespace memsched::harness {

namespace {

// All wall-clock reads go through the blessed wrapper (util/wallclock.hpp)
// so det-banned-call can vouch that host time never leaks into simulated
// state; the orchestrator only times and schedules *around* the children.
using Clock = util::MonotonicClock;

double ms_since(Clock::time_point start) {
  return util::ms_between(start, util::monotonic_now());
}

/// Replaces fd `target` with a freshly created file (child-side only).
void redirect_to_file(const std::string& path, int target) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;  // diagnostics-only stream; keep running without it
  ::dup2(fd, target);
  ::close(fd);
}

std::string format_seconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", seconds);
  return buf;
}

/// Best-effort recursive delete (per-point checkpoint dirs after success);
/// a leftover directory is harmless, so failures are ignored.
void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

/// fork() whose child writes stdout and stderr to the given files, keeping
/// the parent's streams clean; the parent harvests them after exit. Returns
/// as fork() does.
pid_t fork_redirected(const std::string& stdout_path, const std::string& stderr_path) {
  // Flush before fork so buffered output is not emitted twice.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    redirect_to_file(stdout_path, STDOUT_FILENO);
    redirect_to_file(stderr_path, STDERR_FILENO);
  }
  return pid;
}

/// Child side of an in-process body: runs `work`, then _exits with the
/// contract code; a failure leaves its MEMSCHED_ERROR line on stderr.
[[noreturn]] void finish_child(const std::string& name,
                               const std::function<void()>& work) {
  try {
    work();
    std::fflush(nullptr);
    ::_exit(kExitOk);
  } catch (...) {
    const ErrorInfo info = classify_current_exception();
    emit_error_line(name, info);
    std::fflush(nullptr);
    ::_exit(info.exit_code);
  }
}

/// Runs `work` in this process and records how it ended in the words a
/// child's exit gets: "ok", or "interrupted"/"failed" with the diagnosis.
PointRecord run_here(const std::function<void()>& work) {
  PointRecord rec;
  try {
    work();
    rec.status = "ok";
    rec.category = "ok";
  } catch (...) {
    const ErrorInfo info = classify_current_exception();
    rec.status = info.exit_code == kExitInterrupted ? "interrupted" : "failed";
    rec.category = info.category;
    rec.exit_code = info.exit_code;
    rec.error = info.what;
  }
  return rec;
}

/// A point's in-process body; body_ckpt checkpoints into `ckpt_dir`.
util::Json run_body(const PointSpec& point, const std::string& ckpt_dir) {
  if (point.body_ckpt) return point.body_ckpt(ckpt_dir);
  if (point.body) return point.body();
  throw std::runtime_error("point has no body");
}

}  // namespace

std::uint32_t resolve_jobs(std::uint32_t requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("MEMSCHED_JOBS"); env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<std::uint32_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

Orchestrator::Orchestrator(OrchestratorConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.max_attempts == 0) cfg_.max_attempts = 1;
  retry_backoff_.base_seconds = cfg_.backoff_seconds;
  if (!cfg_.manifest_path.empty()) {
    manifest_.open(cfg_.manifest_path, cfg_.fingerprint);
  }
  if (!cfg_.cache_dir.empty()) {
    cache::ResultCacheConfig cc;
    cc.dir = cfg_.cache_dir;
    cc.fingerprint =
        cfg_.cache_fingerprint.empty() ? cfg_.fingerprint : cfg_.cache_fingerprint;
    cache_ = std::make_unique<cache::ResultCache>(std::move(cc), cfg_.cache_faults);
  }
  if (cfg_.work_dir.empty()) {
    cfg_.work_dir = cfg_.manifest_path.empty() ? std::string("memsched-sweep.work")
                                               : cfg_.manifest_path + ".work";
  }
  if (::mkdir(cfg_.work_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("orchestrator: cannot create work dir " + cfg_.work_dir +
                             ": " + std::strerror(errno));
  }
  cost_.load(timing_path());
}

Orchestrator::~Orchestrator() = default;

std::string Orchestrator::timing_path() const {
  return cfg_.manifest_path.empty() ? cfg_.work_dir + "/timing.json"
                                    : cfg_.manifest_path + ".timing.json";
}

void Orchestrator::commit_record(const PointRecord& rec, bool cacheable) {
  manifest_.record(rec);  // checkpoint after *every* point
  // Store AFTER the manifest checkpoint: a cached result must never be more
  // durable than the sweep state that produced it. Any store failure inside
  // put() degrades to a diagnostic; it cannot fail the sweep.
  if (cache_ != nullptr && cacheable && rec.ok() && !rec.payload.empty()) {
    cache_->put(rec.name, rec.payload);
  }
  if (rec.ok() && rec.wall_ms > 0.0) cost_.observe(rec.name, rec.wall_ms);
  if (cfg_.on_record) cfg_.on_record(rec);
}

bool Orchestrator::cache_lookup(const PointSpec& point, std::size_t index,
                                SweepSummary& summary, std::size_t shown) {
  // Exec points are excluded: their "payload" is a pointer at side effects
  // (stdout files) a cache hit would not reproduce.
  if (cache_ == nullptr || !point.argv.empty()) return false;
  std::string payload;
  if (!cache_->get(point.name, &payload)) return false;
  PointRecord rec;
  rec.name = point.name;
  rec.index = static_cast<std::uint32_t>(index);
  rec.status = "ok";
  rec.category = "ok";
  rec.attempts = 1;
  rec.payload = std::move(payload);
  // wall_ms stays 0: a splice is not a measurement, so neither the timing
  // sidecar nor the dispatch cost model learns from it.
  commit_record(rec, /*cacheable=*/false);
  ++summary.cache_hits;
  ++summary.ok;
  if (cfg_.verbose) {
    std::fprintf(stderr, "[sweep] %zu/%zu %s: ok (cache hit)\n", shown,
                 summary.total, point.name.c_str());
  }
  return true;
}

SweepSummary Orchestrator::run(const std::vector<PointSpec>& points) {
  const auto start = util::monotonic_now();
  references_ = ReferencePhase{};
  // Points overlap only behind the fork boundary, where the watchdog and
  // crash shielding live; in-process points run one at a time.
  const std::uint32_t jobs = cfg_.isolate ? resolve_jobs(cfg_.jobs) : 1;

  SweepSummary summary = run_pool(points, jobs);
  summary.jobs = jobs;
  run_jobs_ = jobs;
  run_wall_ms_ = ms_since(start);
  summary.wall_ms = run_wall_ms_;
  cost_.save(timing_path());
  if (cache_ != nullptr && cfg_.verbose) {
    const cache::ResultCacheStats& cs = cache_->stats();
    std::fprintf(stderr,
                 "[sweep] cache %s: %llu hits, %llu misses, %llu stores"
                 " (%llu degraded, %llu quarantined)\n",
                 cfg_.cache_dir.c_str(), static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.stores),
                 static_cast<unsigned long long>(cs.store_errors + cs.read_errors +
                                                 cs.lock_timeouts),
                 static_cast<unsigned long long>(cs.quarantined));
  }
  return summary;
}

SweepSummary Orchestrator::run_pool(const std::vector<PointSpec>& points,
                                    std::uint32_t jobs) {
  SweepSummary summary;
  summary.total = points.size();

  // A pending entry is a point waiting for a worker slot; retried points
  // come back with a backoff gate so the pool never blocks on a sleep.
  struct Pending {
    std::size_t index = 0;
    std::uint32_t attempt = 1;  // attempt number the next run will be
    Clock::time_point ready_at{};
  };
  // A slot is one live forked child.
  struct Slot {
    pid_t pid = -1;
    std::size_t index = 0;
    std::uint32_t attempt = 1;
    Clock::time_point start{};
    Clock::time_point deadline{};
    bool has_deadline = false;
    bool stop_forwarded = false;
  };

  // Estimates are frozen at pool start: observe() during the run must not
  // change the dispatch comparator mid-sort.
  std::vector<double> est(points.size(), 1.0);
  std::vector<Pending> pending;
  pending.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointSpec& point = points[i];
    if (const PointRecord* prev = manifest_.find(point.name);
        prev != nullptr && prev->ok()) {
      ++summary.resumed;
      ++summary.ok;
      if (cfg_.verbose) {
        std::fprintf(stderr, "[sweep] %zu/%zu %s: ok (resumed from manifest)\n", i + 1,
                     points.size(), point.name.c_str());
      }
      continue;
    }
    if (cache_lookup(point, i, summary, i + 1)) continue;
    est[i] = cost_.estimate(point.name, point.cost_hint);
    pending.push_back(Pending{i, 1, Clock::time_point{}});
  }

  // Reference phase, before the first point forks: the first shared-work
  // hook a point about to execute holds is done once for every such point
  // holding it. Its results live for this run only.
  SharedWork* shared = nullptr;
  std::vector<std::string> sharing;
  for (const Pending& p : pending) {
    const PointSpec& point = points[p.index];
    if (!point.argv.empty() || point.shared == nullptr) continue;
    if (shared == nullptr) shared = point.shared.get();
    if (point.shared.get() == shared) sharing.push_back(point.name);
  }
  struct Release {
    void operator()(SharedWork* w) const { w->release(); }
  };
  const std::unique_ptr<SharedWork, Release> release_on_return(shared);
  if (shared != nullptr && !run_references(*shared, sharing, jobs)) {
    summary.interrupted = true;
    return summary;
  }

  // Longest-expected-first (LPT): start the slowest points first so the
  // sweep does not end with one straggler hogging a lone worker.
  const auto lpt_less = [&est](const Pending& a, const Pending& b) {
    if (est[a.index] != est[b.index]) return est[a.index] > est[b.index];
    return a.index < b.index;
  };
  std::sort(pending.begin(), pending.end(), lpt_less);
  // Children that can run at once (retries re-queue points already counted).
  const auto siblings =
      static_cast<std::uint32_t>(std::min<std::size_t>(jobs, pending.size()));

  util::ProgressTicker ticker(cfg_.verbose && ::isatty(STDERR_FILENO) != 0);
  std::vector<Slot> slots;
  slots.reserve(jobs);
  const auto pool_start = util::monotonic_now();
  double done_cost = 0.0;  // estimated cost of completed points (ETA input)
  bool halting = false;    // stop dispatching (graceful stop or interrupted child)

  // Final outcome of one attempt: retry with backoff, halt on interruption,
  // or commit to the manifest. Shared by the reaper, the in-process runner
  // and the fork-failure path.
  const auto handle_outcome = [&](PointRecord rec, std::size_t index,
                                  std::uint32_t attempt) {
    if (rec.status == "interrupted") {
      // State is parked in the per-point snapshot; not recorded, so the next
      // invocation resumes this point. Stop feeding the pool.
      summary.interrupted = true;
      halting = true;
      if (cfg_.verbose) {
        ticker.clear();
        std::fprintf(stderr, "[sweep] %s: interrupted (state checkpointed)\n",
                     points[index].name.c_str());
      }
      return;
    }
    if (!rec.ok() && attempt < cfg_.max_attempts && !halting) {
      if (cfg_.verbose) {
        ticker.clear();
        std::fprintf(stderr, "[sweep] %s: attempt %u %s (%s); retrying\n",
                     points[index].name.c_str(), attempt, rec.status.c_str(),
                     rec.category.c_str());
      }
      Pending p;
      p.index = index;
      p.attempt = attempt + 1;
      // Capped exponential schedule (util::Backoff): a persistently failing
      // point backs off harder each attempt but can never park a pool slot
      // behind an unbounded wait.
      p.ready_at = retry_backoff_.ready_at(util::monotonic_now(), attempt);
      pending.insert(std::lower_bound(pending.begin(), pending.end(), p, lpt_less), p);
      return;
    }
    commit_record(rec, points[index].argv.empty());
    ++summary.executed;
    done_cost += est[index];
    if (rec.ok()) {
      ++summary.ok;
    } else {
      ++summary.failed;
    }
    if (cfg_.verbose) {
      ticker.clear();
      std::fprintf(stderr, "[sweep] %zu/%zu %s: %s (%s, %u attempt%s, %.0f ms)\n",
                   summary.ok + summary.failed, points.size(),
                   points[index].name.c_str(), rec.status.c_str(),
                   rec.category.c_str(), rec.attempts, rec.attempts == 1 ? "" : "s",
                   rec.wall_ms);
    }
  };

  while (!pending.empty() || !slots.empty()) {
    if (!halting && cfg_.stop != nullptr && *cfg_.stop != 0) {
      halting = true;
      summary.interrupted = true;
    }
    if (halting) {
      pending.clear();
      // Graceful-stop fan-out: every live child gets SIGTERM once, so each
      // checkpoints and exits "interrupted". The per-slot hard deadline
      // still applies as the backstop if one wedges on the way out.
      for (Slot& s : slots) {
        if (!s.stop_forwarded) {
          ::kill(s.pid, SIGTERM);
          s.stop_forwarded = true;
        }
      }
      if (slots.empty()) break;
    }

    // Dispatch: fill free slots with ready points, longest expected first
    // (pending is kept sorted; the scan skips entries still in backoff).
    bool progressed = false;
    while (!halting && slots.size() < jobs && !pending.empty()) {
      const auto now = util::monotonic_now();
      const auto it = std::find_if(pending.begin(), pending.end(),
                                   [now](const Pending& p) { return p.ready_at <= now; });
      if (it == pending.end()) break;
      const Pending p = *it;
      pending.erase(it);
      if (!cfg_.isolate && points[p.index].argv.empty()) {
        // In-process (width 1): the point runs to completion here, then the
        // loop top checks the stop flag before the next one.
        PointRecord rec = run_inline(points[p.index], p.index);
        rec.attempts = p.attempt;
        handle_outcome(std::move(rec), p.index, p.attempt);
        progressed = true;
        break;
      }
      const pid_t pid = spawn_child(points[p.index], p.index, siblings);
      if (pid < 0) {
        PointRecord rec;
        rec.name = points[p.index].name;
        rec.index = static_cast<std::uint32_t>(p.index);
        rec.status = "failed";
        rec.category = "internal";
        rec.exit_code = kExitInternal;
        rec.error = std::string("fork failed: ") + std::strerror(errno);
        rec.attempts = p.attempt;
        handle_outcome(std::move(rec), p.index, p.attempt);
        continue;
      }
      Slot s;
      s.pid = pid;
      s.index = p.index;
      s.attempt = p.attempt;
      s.start = util::monotonic_now();
      if (cfg_.timeout_seconds > 0.0) {
        s.deadline = s.start + util::seconds_to_duration(cfg_.timeout_seconds);
        s.has_deadline = true;
      }
      slots.push_back(s);
    }

    // Reap: non-blocking wait on each known pid. Deliberately per-pid, not
    // waitpid(-1) — point bodies may fork children of their own and the
    // pool must never steal their exit statuses.
    for (std::size_t si = 0; si < slots.size();) {
      Slot& s = slots[si];
      int status = 0;
      const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
      if (r < 0 && errno == EINTR) continue;  // retry this slot
      bool timed_out = false;
      if (r == 0) {
        if (s.has_deadline && util::monotonic_now() >= s.deadline) {
          // Per-child wall-clock watchdog: hung point gets SIGKILL; the
          // (now unblockable) exit is collected synchronously.
          ::kill(s.pid, SIGKILL);
          ::waitpid(s.pid, &status, 0);
          timed_out = true;
        } else {
          ++si;
          continue;
        }
      }
      PointRecord rec;
      if (r < 0) {
        rec.name = points[s.index].name;
        rec.index = static_cast<std::uint32_t>(s.index);
        rec.status = "failed";
        rec.category = "internal";
        rec.exit_code = kExitInternal;
        rec.error = std::string("waitpid failed: ") + std::strerror(errno);
      } else {
        rec = conclude_child(points[s.index], s.index, status, timed_out,
                             s.stop_forwarded);
      }
      rec.wall_ms = ms_since(s.start);
      rec.attempts = s.attempt;
      const std::size_t index = s.index;
      const std::uint32_t attempt = s.attempt;
      slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(si));
      handle_outcome(std::move(rec), index, attempt);
      progressed = true;
    }

    // Live progress + ETA. Rate = estimated cost retired per wall ms across
    // the whole pool, so the projection already accounts for parallelism.
    util::ProgressTicker::State st;
    st.done = summary.ok + summary.failed;
    st.failed = summary.failed;
    st.running = slots.size();
    st.total = points.size();
    st.jobs = jobs;
    double left_cost = 0.0;
    for (const Pending& p : pending) left_cost += est[p.index];
    for (const Slot& s : slots) left_cost += est[s.index];
    const double elapsed_ms = ms_since(pool_start);
    if (done_cost > 0.0 && elapsed_ms > 0.0) {
      st.eta_seconds = left_cost / (done_cost / elapsed_ms) / 1000.0;
    }
    ticker.update(st);

    if (!progressed) ::usleep(2000);
  }
  ticker.finish();
  return summary;
}

std::string Orchestrator::ckpt_dir_for(std::size_t index) const {
  return cfg_.work_dir + "/point-" + std::to_string(index) + ".ckpt.d";
}

Orchestrator::ChildFiles Orchestrator::child_files(std::size_t index) const {
  const std::string stem = cfg_.work_dir + "/point-" + std::to_string(index);
  return ChildFiles{stem + ".result.json", stem + ".stdout", stem + ".stderr"};
}

PointRecord Orchestrator::run_inline(const PointSpec& point, std::size_t index) {
  const auto start = util::monotonic_now();
  std::string ckpt_dir;
  if (point.body_ckpt) {
    ckpt_dir = ckpt_dir_for(index);
    ::mkdir(ckpt_dir.c_str(), 0755);  // EEXIST expected across retries
  }
  std::string payload;
  PointRecord rec = run_here([&] { payload = run_body(point, ckpt_dir).dump(-1); });
  rec.name = point.name;
  rec.index = static_cast<std::uint32_t>(index);
  if (rec.ok()) {
    rec.payload = std::move(payload);
    if (!ckpt_dir.empty()) remove_tree(ckpt_dir);
  }
  rec.wall_ms = ms_since(start);
  return rec;
}

pid_t Orchestrator::spawn_child(const PointSpec& point, std::size_t index,
                                std::uint32_t siblings) {
  const ChildFiles files = child_files(index);
  std::remove(files.result.c_str());
  std::string ckpt_dir;
  if (point.body_ckpt) {
    ckpt_dir = ckpt_dir_for(index);
    ::mkdir(ckpt_dir.c_str(), 0755);  // EEXIST expected across retries
  }

  const pid_t pid = fork_redirected(files.stdout_path, files.stderr_path);
  if (pid != 0) return pid;  // parent (or fork failure: -1, errno set)

  if (!point.argv.empty()) {
    std::vector<char*> argv;
    argv.reserve(point.argv.size() + 1);
    for (const std::string& a : point.argv)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "exec %s failed: %s\n", argv[0], std::strerror(errno));
    std::fflush(nullptr);
    ::_exit(kExitInternal);
  }
  // A sampled run fast-forwards on default_thread_count() threads; without
  // the share, a full pool would time-slice siblings x hardware threads.
  sim::share_host(siblings);
  finish_child(point.name,
               [&] { run_body(point, ckpt_dir).write_file(files.result, -1); });
}

bool Orchestrator::run_references(SharedWork& work, const std::vector<std::string>& names,
                                  std::uint32_t jobs) {
  const auto start = util::monotonic_now();
  const std::string stem = cfg_.work_dir + "/references";
  const std::string ckpt_dir = stem + ".ckpt.d";
  const std::string out_path = stem + ".bin";
  std::remove(out_path.c_str());
  ::mkdir(ckpt_dir.c_str(), 0755);  // EEXIST expected after a kill or stop
  const auto compute = [&] { work.compute(names, jobs, ckpt_dir, out_path); };
  PointRecord rec = cfg_.isolate ? reference_child(compute, stem) : run_here(compute);
  if (rec.ok()) {
    try {
      references_.computed = work.install(out_path);
      remove_tree(ckpt_dir);
    } catch (const ckpt::SnapshotError& e) {
      rec.status = "failed";
      rec.category = "internal";
      rec.error = e.what();
    }
  }
  const bool interrupted = rec.status == "interrupted";
  references_.ran = true;
  references_.wall_ms = ms_since(start);
  references_.fell_back = !rec.ok() && !interrupted;
  if (references_.fell_back) references_.diagnosis = rec.category + ": " + rec.error;
  if (cfg_.verbose) {
    if (interrupted) {
      std::fprintf(stderr, "[sweep] references: interrupted (state checkpointed)\n");
    } else if (references_.fell_back) {
      std::fprintf(stderr,
                   "[sweep] references: fell back after %.0f ms (%s); points simulate "
                   "their own\n",
                   references_.wall_ms, references_.diagnosis.c_str());
    } else {
      std::fprintf(stderr,
                   "[sweep] references: %zu for %zu points in %.0f ms (%u threads)\n",
                   references_.computed, names.size(), references_.wall_ms, jobs);
    }
  }
  // The phase is as long as a point may be; a liveness beat after it keeps
  // "phase, then a long first point" from reading as a wedged runner.
  if (cfg_.on_record) cfg_.on_record(PointRecord{});
  return !interrupted;
}

PointRecord Orchestrator::reference_child(const std::function<void()>& compute,
                                          const std::string& stem) const {
  const auto start = util::monotonic_now();
  const pid_t pid = fork_redirected(stem + ".stdout", stem + ".stderr");
  if (pid == 0) finish_child("references", compute);
  int status = 0;
  bool timed_out = false;
  bool stop_forwarded = false;
  const char* failed_call = pid < 0 ? "fork" : nullptr;
  const auto deadline = start + util::seconds_to_duration(cfg_.timeout_seconds);
  while (failed_call == nullptr) {
    // The contract of a point child: a stop is forwarded as SIGTERM, and
    // the wall-clock watchdog SIGKILLs a child that overstays.
    if (!stop_forwarded && cfg_.stop != nullptr && *cfg_.stop != 0) {
      ::kill(pid, SIGTERM);
      stop_forwarded = true;
    }
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0 && errno != EINTR) failed_call = "waitpid";
    if (r == 0 && cfg_.timeout_seconds > 0.0 && util::monotonic_now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      timed_out = true;
      break;
    }
    if (r == 0) ::usleep(2000);
  }
  if (failed_call == nullptr)
    return classify_exit(status, timed_out, stop_forwarded, stem + ".stderr");
  PointRecord rec;
  rec.status = "failed";
  rec.category = "internal";
  rec.error = std::string(failed_call) + " failed: " + std::strerror(errno);
  return rec;
}

PointRecord Orchestrator::classify_exit(int status, bool timed_out, bool stop_forwarded,
                                        const std::string& stderr_path) const {
  PointRecord rec;
  if (timed_out) {
    rec.status = "timeout";
    rec.category = "timeout";
    rec.term_signal = SIGKILL;
    rec.error = "watchdog: no exit within " + format_seconds(cfg_.timeout_seconds) +
                " s wall clock; sent SIGKILL";
    return rec;
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    if (stop_forwarded && sig == SIGTERM) {
      // Child without a SIGTERM handler (e.g. an exec'd bench) died to the
      // forwarded graceful stop — that is an interruption, not a crash.
      rec.status = "interrupted";
      rec.category = exit_category(kExitInterrupted);
      rec.exit_code = kExitInterrupted;
      rec.term_signal = sig;
      return rec;
    }
    rec.status = "crash";
    rec.category = "crash";
    rec.term_signal = sig;
    rec.error = "child killed by signal " + std::to_string(sig);
    if (const std::string detail = child_error(stderr_path); !detail.empty())
      rec.error += ": " + detail;
    return rec;
  }

  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : kExitInternal;
  rec.exit_code = code;
  if (code == kExitInterrupted) {
    rec.status = "interrupted";
    rec.category = exit_category(code);
    rec.error = child_error(stderr_path);
    return rec;
  }
  if (code != kExitOk) {
    rec.status = "failed";
    rec.category = exit_category(code);
    rec.error = child_error(stderr_path);
    if (rec.error.empty())
      rec.error = "child exited with code " + std::to_string(code);
    return rec;
  }
  rec.status = "ok";
  rec.category = "ok";
  return rec;
}

PointRecord Orchestrator::conclude_child(const PointSpec& point, std::size_t index,
                                         int status, bool timed_out,
                                         bool stop_forwarded) {
  const ChildFiles files = child_files(index);
  PointRecord rec = classify_exit(status, timed_out, stop_forwarded, files.stderr_path);
  rec.name = point.name;
  rec.index = static_cast<std::uint32_t>(index);
  if (rec.status != "ok") return rec;

  if (point.argv.empty()) {
    const int err = util::read_file(files.result, rec.payload);
    // write_file appends a newline; strip it so the payload splices cleanly
    // into the report.
    while (!rec.payload.empty() && rec.payload.back() == '\n') rec.payload.pop_back();
    if (rec.payload.empty()) {
      rec.status = "failed";
      rec.category = "internal";
      rec.exit_code = kExitInternal;
      rec.error = err == 0 || err == ENOENT
                      ? "child exited 0 but wrote no result file"
                      : "cannot read result file " + files.result + ": " + std::strerror(err);
      return rec;
    }
  } else {
    // Exec points produce human-readable output, captured per point; the
    // report records where it went rather than duplicating it.
    util::Json payload = util::Json::object();
    payload["stdout_file"] = "point-" + std::to_string(index) + ".stdout";
    rec.payload = payload.dump(-1);
  }
  if (point.body_ckpt) remove_tree(ckpt_dir_for(index));
  return rec;
}

std::string Orchestrator::child_error(const std::string& stderr_path) const {
  std::string text;
  if (util::read_file(stderr_path, text) != 0 || text.empty()) return {};
  // Prefer the structured error record emitted by guarded_main / the forked
  // point body; fall back to a bounded tail of raw stderr.
  static constexpr std::string_view kMarker = "MEMSCHED_ERROR ";
  if (const std::size_t pos = text.rfind(kMarker); pos != std::string::npos) {
    const std::size_t begin = pos + kMarker.size();
    const std::size_t end = text.find('\n', begin);
    return text.substr(begin, end == std::string::npos ? std::string::npos
                                                       : end - begin);
  }
  constexpr std::size_t kTail = 512;
  std::string tail = text.size() > kTail ? text.substr(text.size() - kTail) : text;
  while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r')) tail.pop_back();
  return tail;
}

util::Json Orchestrator::report() const {
  util::Json doc = util::Json::object();
  doc["schema"] = "memsched-sweep-report-v1";
  doc["fingerprint"] = cfg_.fingerprint;

  util::Json points = util::Json::array();
  util::Json gaps = util::Json::array();
  std::size_t ok = 0;
  for (const PointRecord& r : manifest_.records()) {
    util::Json p = util::Json::object();
    p["name"] = r.name;
    p["status"] = r.status;
    p["category"] = r.category;
    p["attempts"] = r.attempts;
    p["exit_code"] = r.exit_code;
    p["term_signal"] = r.term_signal;
    if (r.ok()) {
      ++ok;
      // Verbatim splice of the recorded payload: no parse/re-emit round
      // trip, so resumed sweeps reproduce the exact bytes.
      p["result"] = util::Json::raw(r.payload.empty() ? "null" : r.payload);
    } else {
      p["error"] = r.error;
      gaps.push_back(r.name);
    }
    points.push_back(std::move(p));
  }
  doc["points"] = std::move(points);

  util::Json summary = util::Json::object();
  summary["total"] = manifest_.size();
  summary["ok"] = ok;
  summary["gap_count"] = manifest_.size() - ok;
  summary["gaps"] = std::move(gaps);
  doc["summary"] = std::move(summary);
  return doc;
}

util::Json Orchestrator::timing_report() const {
  util::Json doc = util::Json::object();
  doc["schema"] = "memsched-sweep-timing-report-v1";
  doc["jobs"] = run_jobs_;
  doc["wall_ms"] = run_wall_ms_;
  util::Json points = util::Json::object();
  for (const PointRecord& r : manifest_.records()) {
    // Resumed records carry no wall time (timing never round-trips through
    // the manifest); report only what this invocation actually measured.
    if (r.wall_ms > 0.0) points[r.name] = r.wall_ms;
  }
  doc["points"] = std::move(points);
  util::Json refs = util::Json::object();
  refs["ran"] = references_.ran;
  refs["computed"] = references_.computed;
  refs["wall_ms"] = references_.wall_ms;
  refs["fell_back"] = references_.fell_back;
  refs["diagnosis"] = references_.diagnosis;
  doc["references"] = std::move(refs);
  return doc;
}

}  // namespace memsched::harness
