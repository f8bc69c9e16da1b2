// Fault-tolerant sweep orchestrator: one N-way process pool runs every sweep.
//
// Runs a list of experiment points, each in an isolated forked child, under a
// wall-clock watchdog. Up to `jobs` children run concurrently (width 1 is the
// same pool with one slot), reaped by a non-blocking waitpid loop and
// dispatched longest-expected-first (per-point cost model: timing history of
// prior runs, falling back to the caller's static hint). With isolation off,
// the same loop runs each point in-process, one at a time. A hung point is
// SIGKILLed and recorded as a structured "timeout" failure; a crashed point
// records its signal; a point that exits with one of the exit_codes.hpp codes
// records that diagnosis.
// Failed points are retried a bounded number of times with backoff, then
// recorded and *skipped* — the rest of the sweep still completes and the
// final report marks the gaps. After every completed point the manifest is
// checkpointed (records index-sorted, so the bytes never depend on completion
// order), which gives the determinism contract: manifest and report are
// byte-identical for jobs=1 and jobs=N, across kills and resumes. Wall-clock
// timing lives in sidecar files (<manifest>.timing.json) and the timing
// report, never in the manifest or report themselves.
#pragma once

#include <sys/types.h>

#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/cost_model.hpp"
#include "harness/manifest.hpp"
#include "util/backoff.hpp"
#include "util/fs_fault.hpp"
#include "util/json.hpp"

namespace memsched::cache {
class ResultCache;
}  // namespace memsched::cache

namespace memsched::harness {

/// One experiment point. Either an in-process body returning the point's
/// JSON result (run inside a forked child when isolation is on), or an
/// external command in `argv` (fork + exec; takes precedence when set).
///
/// `body_ckpt`, when set, is preferred over `body`: it receives a per-point
/// checkpoint directory (work_dir/point-<i>.ckpt.d) that survives watchdog
/// kills and retries, so a re-attempted point resumes from its latest valid
/// snapshot instead of starting over. The directory is deleted once the
/// point succeeds.
struct PointSpec {
  std::string name;
  std::function<util::Json()> body;
  std::function<util::Json(const std::string& ckpt_dir)> body_ckpt;
  std::vector<std::string> argv;

  /// Static cost hint for longest-expected-first dispatch when no timing
  /// history exists (arbitrary units; only relative order matters). The grid
  /// builder uses trace length x core count; bench entries carry weights.
  /// 0 = unknown (treated as 1).
  double cost_hint = 0.0;
};

struct OrchestratorConfig {
  std::string manifest_path;  ///< empty = in-memory only (no resume)
  std::string fingerprint;    ///< sweep identity; resume refuses a mismatch
  std::string work_dir;       ///< scratch dir for per-point result/stderr files

  /// Result-cache identity; empty = `fingerprint`. Grid sweeps pass the
  /// point-independent config fingerprint here so two grids that share a
  /// configuration share cache entries per point (the sweep daemon's
  /// incremental re-sweeps), while the manifest and report keep the full
  /// sweep identity.
  std::string cache_fingerprint;

  double timeout_seconds = 300.0;  ///< per-attempt wall-clock watchdog; 0 = none
  std::uint32_t max_attempts = 1;  ///< bounded retry (1 = no retry)
  double backoff_seconds = 0.0;    ///< base of the capped exponential retry
                                   ///< schedule (util::Backoff): the sleep
                                   ///< before retry k is min(base*2^(k-1), 60s)

  /// Content-addressed result cache directory; empty = no caching. A point
  /// whose (fingerprint, name) key is already stored short-circuits the
  /// forked worker and splices the recorded payload in — manifest and report
  /// bytes are identical to a cold run at any jobs= width. Cache I/O
  /// failures degrade to a miss, never a failed sweep. Exec (argv) points
  /// are never cached: their results are side effects, not payloads.
  std::string cache_dir;

  /// Optional deterministic fault source armed around the cache's own
  /// filesystem I/O (and nothing else) — chaos testing the degraded modes.
  util::FsFaultHooks* cache_faults = nullptr;
  bool isolate = true;   ///< fork per point; false = in-process, one point at
                         ///< a time at pool width 1 (no timeout or crash
                         ///< shielding — unit tests and debugging only; exec
                         ///< points still fork)
  bool verbose = true;   ///< per-point progress lines on stderr

  /// Process-pool width. 0 = auto: MEMSCHED_JOBS from the environment, else
  /// hardware_concurrency. N keeps up to N forked points in flight; 1 is the
  /// same pool with one slot. Ignored (width 1) when isolate is false.
  std::uint32_t jobs = 1;

  /// Cooperative graceful-stop flag (typically ckpt::stop_flag(), set by the
  /// SIGTERM/SIGINT handler). When it fires, every running child is
  /// forwarded SIGTERM — each checkpoints and exits "interrupted" — and the
  /// sweep stops WITHOUT recording those points, so the next invocation
  /// resumes them from their snapshots. Children that complete before the
  /// signal lands are still recorded.
  const volatile std::sig_atomic_t* stop = nullptr;

  /// Liveness hook: invoked after every committed point record (including
  /// cache hits). The serve daemon's job runners heartbeat
  /// through this so their supervisor can tell "long point" from "wedged
  /// runner". Must be cheap and must not throw.
  std::function<void(const PointRecord&)> on_record;
};

struct SweepSummary {
  std::size_t total = 0;
  std::size_t ok = 0;        ///< includes resumed points
  std::size_t failed = 0;
  std::size_t resumed = 0;   ///< replayed from the manifest, not re-run
  std::size_t cache_hits = 0;  ///< served from the result cache, not re-run
  std::size_t executed = 0;  ///< actually run this invocation
  bool interrupted = false;  ///< graceful stop (SIGTERM/SIGINT) ended the sweep
  std::uint32_t jobs = 1;    ///< resolved pool width this run
  double wall_ms = 0.0;      ///< end-to-end wall clock of run()

  [[nodiscard]] bool complete() const {
    return !interrupted && ok + failed == total;
  }
};

/// Resolves a jobs request: nonzero passes through; 0 consults MEMSCHED_JOBS,
/// then hardware_concurrency, with a floor of 1.
[[nodiscard]] std::uint32_t resolve_jobs(std::uint32_t requested);

class Orchestrator {
 public:
  explicit Orchestrator(OrchestratorConfig cfg);
  ~Orchestrator();  // out of line: ResultCache is forward-declared here

  /// Runs (or resumes) the sweep. Points whose manifest record is already
  /// "ok" are skipped; previously failed points are re-attempted. Records
  /// are committed in index order, so manifest and report bytes are the
  /// same at every pool width.
  SweepSummary run(const std::vector<PointSpec>& points);

  [[nodiscard]] const Manifest& manifest() const { return manifest_; }

  /// The result cache handle, or nullptr when cache_dir was empty.
  [[nodiscard]] const cache::ResultCache* result_cache() const { return cache_.get(); }

  /// Deterministic sweep report: recorded payloads are spliced back verbatim
  /// and wall-clock fields are excluded, so an interrupted-and-resumed sweep
  /// at any width dumps byte-identical output to an uninterrupted one at
  /// width 1. Failed points are listed with their diagnosis and summarized
  /// as gaps.
  [[nodiscard]] util::Json report() const;

  /// Machine-readable wall-clock record of the last run(): per-point wall
  /// times, end-to-end wall time, pool width. Deliberately a separate
  /// document from report() — timing differs run to run, the report must
  /// not.
  [[nodiscard]] util::Json timing_report() const;

 private:
  /// Paths of one point's scratch files under work_dir.
  struct ChildFiles {
    std::string result;
    std::string stdout_path;
    std::string stderr_path;
  };

  SweepSummary run_pool(const std::vector<PointSpec>& points, std::uint32_t jobs);

  /// Runs one attempt of `point` in this process (isolate = false).
  PointRecord run_inline(const PointSpec& point, std::size_t index);

  /// Forks one child for `point`; the child never returns (it _exits with a
  /// contract code). `siblings` is how many children may run at once; an
  /// in-process body gets that share of the host's threads
  /// (sim::share_host). Returns the child pid, or -1 with errno set.
  pid_t spawn_child(const PointSpec& point, std::size_t index, std::uint32_t siblings);

  /// Builds the record for a reaped child from its wait status and scratch
  /// files (classification, payload harvest, ckpt-dir cleanup on success).
  PointRecord conclude_child(const PointSpec& point, std::size_t index, int status,
                             bool timed_out, bool stop_forwarded);

  [[nodiscard]] ChildFiles child_files(std::size_t index) const;

  /// Per-point checkpoint directory (created on demand for body_ckpt
  /// points); kept across retries, removed once the point succeeds.
  [[nodiscard]] std::string ckpt_dir_for(std::size_t index) const;
  [[nodiscard]] std::string child_error(const std::string& stderr_path) const;

  /// Records a final per-point outcome: manifest checkpoint + timing +
  /// (when `cacheable`) a result-cache store for ok payloads.
  void commit_record(const PointRecord& rec, bool cacheable = true);

  /// Cache lookup for one point; on a hit, commits the spliced record (ok,
  /// attempt 1 — byte-identical to a cold first-try success) and updates
  /// `summary`. `shown` is the 1-based position for the progress line.
  bool cache_lookup(const PointSpec& point, std::size_t index,
                    SweepSummary& summary, std::size_t shown);

  [[nodiscard]] std::string timing_path() const;

  OrchestratorConfig cfg_;
  Manifest manifest_;
  CostModel cost_;
  std::unique_ptr<cache::ResultCache> cache_;
  util::Backoff retry_backoff_;
  double run_wall_ms_ = 0.0;
  std::uint32_t run_jobs_ = 1;
};

}  // namespace memsched::harness
