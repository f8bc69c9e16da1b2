// Shared reporting helpers for the figure/table reproduction harnesses.
//
// Every harness prints:
//   * a header echoing the effective configuration (Table 1 defaults plus
//     any key=value overrides from the command line);
//   * the rows/series of the paper artefact it regenerates;
//   * a summary block comparing against the paper's headline numbers.
// Output is plain text; pass csv=<path> to also dump machine-readable rows.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.hpp"
#include "util/config.hpp"

namespace memsched::bench {

/// Parses CLI overrides and builds the experiment configuration
/// (sim::read_experiment_keys):
///   insts=N repeats=N warmup=N profile_insts=N seed=N profile_seed=N
///   interleave=line|page|hybrid refresh=0|1 verify=0|1
///   engine=skip|cycle|sampled
struct BenchSetup {
  util::Config cli;
  sim::ExperimentConfig experiment;
  std::string csv_path;  ///< empty = no CSV

  /// Parses or dies loudly: malformed tokens, unknown keys (after a
  /// did-you-mean check), or malformed values print usage and raise
  /// std::invalid_argument, which the guarded_main wrapper turns into exit
  /// code 2 plus a structured MEMSCHED_ERROR line. `extra_keys` lists
  /// bench-specific additions to the shared vocabulary above.
  static BenchSetup parse(int argc, char** argv,
                          const std::vector<std::string_view>& extra_keys = {});
};

/// Runs every (workload, scheme) pair through `exp` on all host threads;
/// the result grid is indexed [workload][scheme].
std::vector<std::vector<sim::WorkloadRun>> run_grid(
    sim::Experiment& exp, const std::vector<sim::Workload>& workloads,
    const std::vector<std::string>& schemes);

/// Prints the standard header: binary name, paper artefact, configuration.
void print_header(const BenchSetup& setup, const char* artefact,
                  const char* paper_claim);

/// Minimal CSV sink; writes a header row then data rows.
class CsvSink {
 public:
  explicit CsvSink(const std::string& path);  ///< empty path = disabled
  ~CsvSink();
  CsvSink(const CsvSink&) = delete;
  CsvSink& operator=(const CsvSink&) = delete;

  void row(const std::vector<std::string>& cells);

 private:
  std::FILE* f_ = nullptr;
};

/// Percentage delta helper: 100 * (x / base - 1).
double pct(double x, double base);

/// "+4.2%"-style formatting.
std::string fmt_pct(double percent);

}  // namespace memsched::bench
