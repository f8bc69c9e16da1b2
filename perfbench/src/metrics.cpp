#include "metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"sim_minsts_per_s", "Minsts/s"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"sim.mticks_per_s", "Mticks/s"},
      {"sim.visited_ticks", "count"},
      {"sim.visited_share", "ratio"},
      {"sim.scan_ns_per_visit", "ns"},
      {"sim.loop_self_ns_per_visit", "ns"},
      {"sampled_ipc_err_pct", "%"},
      {"sampled_lat_err_pct", "%"},
      {"cpu.step_ns_per_visit", "ns"},
      {"cpu.insts_committed", "count"},
      {"cpu.fill_cb_ns_per_fill", "ns"},
      {"trace.ns_per_inst", "ns"},
      {"trace.ff_ns_per_inst", "ns"},
      {"cache.tick_ns_per_visit", "ns"},
      {"cache.ff_ns_per_inst", "ns"},
      {"cache.l2_miss_ratio", "ratio"},
      {"cache.mshr_retry_cycles", "count"},
      {"mc.tick_ns_per_visit", "ns"},
      {"mc.ns_per_request", "ns"},
      {"mc.sched_rounds", "count"},
      {"mc.requests_served", "count"},
      {"mc.row_hit_ratio", "ratio"},
      {"sched.ns_per_round", "ns"},
      {"sched.priority_calls_per_round", "count"},
      {"sched.epoch_calls", "count"},
      {"dram.bus_utilization", "ratio"},
      {"harness.sweep_cold_s", "s"},
      {"harness.point_wall_p50_s", "s"},
      {"harness.point_wall_p75_s", "s"},
      {"harness.sweep_warm_s", "s"},
      {"harness.pool_overhead_s", "s"},
      {"harness.points_executed", "count"},
      {"harness.retries", "count"},
      {"result_cache.hit_ratio", "ratio"},
      {"result_cache.ms_per_hit", "ms"},
      {"spans.coverage", "ratio"},
      {"spans.overhead_share", "ratio"},
  };
  return kDefs;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
