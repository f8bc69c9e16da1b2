// Metric names and units the benchmark reports, and the order statistics it
// reports them with. BENCHMARK.json lists the same names; run.py refuses an
// output whose names or units differ from it.
#pragma once

#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0, on every workload.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();

/// Printed with --trace 1, on every workload (0 where the workload does not
/// exercise the layer).
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

}  // namespace perfbench
