// Grid sweep definition shared by memsched_sweep and the sweep daemon.
//
// A grid is the (workload x scheme) cross product of the paper's evaluation
// methodology plus every knob that changes a point's result. Historically the
// point-list construction lived inline in tools/memsched_sweep.cpp; the serve
// subsystem (src/serve) needs to build the exact same PointSpecs from a
// submitted job, so the parsing, validation, fingerprinting and point
// construction live here — one implementation, two front ends, and a
// submitted job is guaranteed to produce bytes identical to the same grid run
// through the CLI tool.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "harness/orchestrator.hpp"
#include "mc/fault_injector.hpp"
#include "sim/experiment.hpp"

namespace memsched::util {
class Config;
}  // namespace memsched::util

namespace memsched::harness {

/// Parsed grid sweep definition. Raw CSV strings are kept verbatim because
/// the classic grid fingerprint renders them byte-for-byte.
struct GridSpec {
  sim::ExperimentConfig cfg;
  mc::FaultConfig fault;
  std::string workloads_csv;
  std::string schemes_csv;
  std::string fault_points_csv;
  std::vector<std::string> workloads;
  std::vector<std::string> schemes;
  bool ckpt_on = true;
  Tick ckpt_interval = 1'000'000;
};

/// Splits a comma-separated list, dropping empty items.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv);

/// Grid-definition keys (workloads, schemes, insts, ... ckpt_interval) —
/// the vocabulary a sweep submission may use. Front ends append their own
/// transport/orchestration keys before calling Config::check_known.
[[nodiscard]] const std::vector<std::string_view>& grid_keys();

/// Parses a grid definition out of `cli`, applying the same defaults as
/// `memsched_sweep grid`; the experiment keys go through
/// sim::read_experiment_keys. Throws std::invalid_argument on a malformed
/// value (one that does not parse, an unknown interleave or engine, an
/// out-of-range fault probability). Key validation is the caller's job
/// (front ends accept different surrounding vocabularies).
[[nodiscard]] GridSpec grid_from_config(const util::Config& cli);

/// The classic full-sweep fingerprint (includes the workload/scheme CSVs) —
/// what `memsched_sweep grid` binds its manifest and cache to.
[[nodiscard]] std::string fingerprint(const GridSpec& spec);

/// Point-independent configuration fingerprint: every result-affecting knob
/// EXCEPT the workload/scheme lists. Point names ("workload/scheme") carry
/// the rest of the identity, so two grids that share a configuration share
/// result-cache entries per point — the daemon's incremental re-sweeps hang
/// off this.
[[nodiscard]] std::string config_fingerprint(const GridSpec& spec);

/// Builds the PointSpec list for the grid: one isolated, checkpointable,
/// cost-hinted point per (workload, scheme) pair, identical to what
/// `memsched_sweep grid` runs.
[[nodiscard]] std::vector<PointSpec> grid_points(const GridSpec& spec);

}  // namespace memsched::harness
