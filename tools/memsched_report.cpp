// memsched_report — automated reproduction acceptance harness.
//
// Runs a (scaled-down by default) version of every paper artefact and
// checks the qualitative claims programmatically, printing PASS/FAIL per
// criterion and exiting nonzero if any hard criterion fails. Registered in
// ctest with small parameters as the end-to-end acceptance test; run with
// larger insts/repeats for a publication-grade check:
//
//   memsched_report [insts=300000] [repeats=3] [profile_insts=1000000]
//                   [seed=2002] [json=path]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/guarded_main.hpp"
#include "sim/experiment.hpp"
#include "sim/json_report.hpp"
#include "sim/workloads.hpp"
#include "trace/app_profile.hpp"
#include "util/config.hpp"
#include "util/stats.hpp"

using namespace memsched;

namespace {

struct Verdict {
  std::string criterion;
  std::string detail;
  bool pass;
};

std::vector<Verdict> g_verdicts;

void check(const std::string& criterion, bool pass, const std::string& detail) {
  g_verdicts.push_back({criterion, detail, pass});
  std::printf("  [%s] %-52s %s\n", pass ? "PASS" : "FAIL", criterion.c_str(),
              detail.c_str());
}

double spearman_vs_table2(sim::Experiment& exp) {
  const auto& apps = trace::spec2000_profiles();
  std::vector<double> paper, measured;
  for (const auto& a : apps) {
    paper.push_back(a.table_me);
    measured.push_back(exp.profile(a.name).memory_efficiency);
  }
  const auto ranks = [](const std::vector<double>& xs) {
    std::vector<std::size_t> idx(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
    std::vector<double> r(xs.size());
    for (std::size_t pos = 0; pos < idx.size(); ++pos)
      r[idx[pos]] = static_cast<double>(pos);
    return r;
  };
  const auto rp = ranks(paper), rm = ranks(measured);
  double d2 = 0.0;
  for (std::size_t i = 0; i < rp.size(); ++i) d2 += (rp[i] - rm[i]) * (rp[i] - rm[i]);
  const double n = static_cast<double>(rp.size());
  return 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
}

/// Mean metric of a scheme over a workload group.
struct GroupStats {
  double smt = 0.0;
  double unfairness = 0.0;
  double latency = 0.0;
};

GroupStats group_mean(sim::Experiment& exp, const std::vector<sim::Workload>& group,
                      const std::string& scheme) {
  GroupStats g;
  for (const auto& w : group) {
    const sim::WorkloadRun r = exp.run(w, scheme);
    g.smt += r.smt_speedup;
    g.unfairness += r.unfairness;
    g.latency += r.avg_read_latency_cpu;
  }
  const double n = static_cast<double>(group.size());
  g.smt /= n;
  g.unfairness /= n;
  g.latency /= n;
  return g;
}

std::string pct_str(double x, double base) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * (x / base - 1.0));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  return memsched::harness::guarded_main("memsched_report", [&] {
    util::Config cli;
    if (auto err = cli.parse_args(argc, argv)) {
      std::fprintf(stderr, "%s\nusage: memsched_report [key=value...]\n", err->c_str());
      throw std::invalid_argument("bad command line");
    }
    if (const auto err = cli.check_known(
            {"insts", "repeats", "profile_insts", "seed", "json"}))
      throw std::invalid_argument(*err);
    sim::ExperimentConfig cfg;
    sim::read_experiment_keys(cli, cfg);
    sim::Experiment exp(cfg);

    std::printf("memsched reproduction report (eval %llu insts x %u, profile %llu)\n\n",
                static_cast<unsigned long long>(cfg.eval_insts), cfg.eval_repeats,
                static_cast<unsigned long long>(cfg.profile_insts));

    // --- Table 2 ---
    std::printf("Table 2 — memory efficiency:\n");
    const double rho = spearman_vs_table2(exp);
    check("ME ordering matches Table 2 (Spearman > 0.95)", rho > 0.95,
          "rho = " + util::fmt(rho, 3));

    // --- Figure 2 ---
    std::printf("Figure 2 — SMT speedup:\n");
    const auto mem4 = sim::table3_workloads(4, "MEM");
    const auto mem8 = sim::table3_workloads(8, "MEM");
    const auto mem2 = sim::table3_workloads(2, "MEM");
    const GroupStats hf4 = group_mean(exp, mem4, "HF-RF");
    const GroupStats ml4 = group_mean(exp, mem4, "ME-LREQ");
    const GroupStats hf8 = group_mean(exp, mem8, "HF-RF");
    const GroupStats lreq8 = group_mean(exp, mem8, "LREQ");
    const GroupStats rr8 = group_mean(exp, mem8, "RR");
    const GroupStats ml8 = group_mean(exp, mem8, "ME-LREQ");
    const GroupStats hf2 = group_mean(exp, mem2, "HF-RF");
    const GroupStats ml2 = group_mean(exp, mem2, "ME-LREQ");

    check("ME-LREQ beats HF-RF on 4-core MEM (avg)", ml4.smt > hf4.smt,
          pct_str(ml4.smt, hf4.smt));
    check("ME-LREQ beats HF-RF on 8-core MEM (avg)", ml8.smt > hf8.smt,
          pct_str(ml8.smt, hf8.smt));
    check("ME-LREQ beats LREQ on 8-core MEM", ml8.smt > lreq8.smt,
          pct_str(ml8.smt, lreq8.smt));
    // The LREQ-over-RR gap is only resolvable where memory pressure is high;
    // at 4 cores the two schemes tie within noise (paper: 4.0% vs ~1%).
    check("LREQ beats RR on 8-core MEM", lreq8.smt > rr8.smt, pct_str(lreq8.smt, rr8.smt));
    const double gain2 = ml2.smt / hf2.smt - 1.0;
    const double gain4 = ml4.smt / hf4.smt - 1.0;
    const double gain8 = ml8.smt / hf8.smt - 1.0;
    check("gains grow with core count (2 < 4 < 8)", gain2 < gain4 && gain4 < gain8,
          util::fmt(gain2 * 100, 1) + " < " + util::fmt(gain4 * 100, 1) + " < " +
              util::fmt(gain8 * 100, 1) + " %");
    check("2-core gains small (paper: insignificant)", std::abs(gain2) < 0.05,
          util::fmt(gain2 * 100, 1) + "%");
    const auto mix4 = sim::table3_workloads(4, "MIX");
    const GroupStats hfm4 = group_mean(exp, mix4, "HF-RF");
    const GroupStats mlm4 = group_mean(exp, mix4, "ME-LREQ");
    check("MIX gains smaller than MEM gains (4 cores)",
          (mlm4.smt / hfm4.smt - 1.0) < gain4,
          "MIX " + pct_str(mlm4.smt, hfm4.smt) + " vs MEM " + pct_str(ml4.smt, hf4.smt));

    // --- Figure 4 ---
    std::printf("Figure 4 — read latency:\n");
    check("ME-LREQ mean read latency below HF-RF (4MEM)", ml4.latency < hf4.latency,
          util::fmt(ml4.latency, 0) + " vs " + util::fmt(hf4.latency, 0) + " cycles");
    const sim::WorkloadRun me_4mem5 = exp.run(sim::workload_by_name("4MEM-5"), "ME");
    const sim::WorkloadRun hf_4mem5 = exp.run(sim::workload_by_name("4MEM-5"), "HF-RF");
    const auto spread = [](const std::vector<double>& lat) {
      const auto [mn, mx] = std::minmax_element(lat.begin(), lat.end());
      return *mx / *mn;
    };
    check("ME spreads per-core latency more than HF-RF (4MEM-5)",
          spread(me_4mem5.core_read_latency_cpu) > spread(hf_4mem5.core_read_latency_cpu),
          util::fmt(spread(me_4mem5.core_read_latency_cpu), 2) + "x vs " +
              util::fmt(spread(hf_4mem5.core_read_latency_cpu), 2) + "x");

    // --- Figure 5 ---
    std::printf("Figure 5 — fairness:\n");
    check("ME-LREQ fairer than HF-RF (4MEM avg unfairness)",
          ml4.unfairness < hf4.unfairness,
          util::fmt(ml4.unfairness, 3) + " vs " + util::fmt(hf4.unfairness, 3));
    const GroupStats me4 = group_mean(exp, mem4, "ME");
    check("fixed ME less fair than ME-LREQ", me4.unfairness > ml4.unfairness,
          util::fmt(me4.unfairness, 3) + " vs " + util::fmt(ml4.unfairness, 3));

    // --- Figure 1 implementability ---
    std::printf("Figure 1 — hardware priority table:\n");
    const GroupStats hw4 = group_mean(exp, mem4, "ME-LREQ-HW");
    check("10-bit table within 2% of exact division",
          std::abs(hw4.smt / ml4.smt - 1.0) < 0.02, pct_str(hw4.smt, ml4.smt));

    // --- summary ---
    int failed = 0;
    for (const auto& v : g_verdicts) failed += !v.pass;
    std::printf("\n%zu criteria, %d failed.\n", g_verdicts.size(), failed);

    if (const std::string path = cli.get_string("json", ""); !path.empty()) {
      util::Json doc = util::Json::object();
      doc["eval_insts"] = cfg.eval_insts;
      doc["repeats"] = cfg.eval_repeats;
      util::Json arr = util::Json::array();
      for (const auto& v : g_verdicts) {
        util::Json j = util::Json::object();
        j["criterion"] = v.criterion;
        j["detail"] = v.detail;
        j["pass"] = v.pass;
        arr.push_back(std::move(j));
      }
      doc["verdicts"] = std::move(arr);
      doc.write_file(path);
    }
  return failed == 0 ? 0 : 1;
  });
}
