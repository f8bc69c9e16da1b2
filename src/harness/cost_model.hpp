// Per-point cost model for the parallel sweep executor.
//
// The pool dispatches longest-expected-first: with N workers, launching the
// slowest points first minimises the makespan tail (the classic LPT
// list-scheduling heuristic). Expected cost comes from the timing sidecar of
// a previous run of the same sweep (<manifest>.timing.json, written after
// every sweep) and falls back to the caller-supplied static hint (the grid
// builder uses trace length x core count; the bench registry carries
// relative weights). Estimates only order dispatch — they never touch the
// manifest or report, so a wrong estimate costs wall clock, not correctness.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace memsched::harness {

class CostModel {
 public:
  /// Loads timing history from `path`. Missing or malformed files are simply
  /// ignored (the model degrades to the static hints) — timing is advisory.
  void load(const std::string& path);

  /// Atomically writes the current history to `path`.
  void save(const std::string& path) const;

  /// Records an observed wall time for a point (replaces older history).
  void observe(const std::string& name, double wall_ms);

  /// Expected cost of a point, in arbitrary but mutually comparable units:
  /// observed wall_ms when history exists, else the static hint, else 1.
  /// History and hints are different units — that is fine, because within
  /// one sweep either (a) history covers the very points being re-run, or
  /// (b) there is no history and every point uses its hint.
  [[nodiscard]] double estimate(const std::string& name, double hint) const;

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return wall_ms_.size(); }

 private:
  std::map<std::string, double> wall_ms_;
};

}  // namespace memsched::harness
