// Robustness-layer tests: forward-progress watchdog, cycle-budget guard,
// deterministic fault injection, and the fault-tolerant sweep orchestrator
// (isolation, timeout, retry, checkpoint/resume).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "golden_file.hpp"
#include "harness/cost_model.hpp"
#include "harness/fingerprint.hpp"
#include "harness/grid.hpp"
#include "harness/guarded_main.hpp"
#include "harness/manifest.hpp"
#include "harness/orchestrator.hpp"
#include "mc/audit.hpp"
#include "mc/fault_injector.hpp"
#include "sched/policies.hpp"
#include "sim/experiment.hpp"
#include "sim/open_loop.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "sim/watchdog.hpp"
#include "trace/app_profile.hpp"
#include "util/config.hpp"
#include "util/fs_fault.hpp"
#include "util/json.hpp"

using namespace memsched;

namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "memsched_" + name;
}

harness::PointSpec ok_point(const std::string& name, double value) {
  harness::PointSpec p;
  p.name = name;
  p.body = [value] {
    util::Json j = util::Json::object();
    j["value"] = value;
    return j;
  };
  return p;
}

harness::OrchestratorConfig quick_config(const std::string& tag) {
  harness::OrchestratorConfig oc;
  oc.work_dir = tmp_path("work_" + tag);
  oc.verbose = false;
  oc.timeout_seconds = 60.0;
  return oc;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProgressWatchdog unit behaviour.

TEST(ProgressWatchdog, FiresOnlyAfterFullWindowWithoutProgress) {
  sim::ProgressWatchdog wd(100);
  ASSERT_TRUE(wd.enabled());
  EXPECT_FALSE(wd.poll(0, 5, true));    // first observation arms the lane
  EXPECT_FALSE(wd.poll(60, 5, true));   // within the window
  EXPECT_TRUE(wd.poll(100, 5, true));   // window elapsed, counter frozen
  EXPECT_FALSE(wd.poll(150, 6, true));  // progress resets the lane
  EXPECT_FALSE(wd.poll(260, 6, false));  // no pending work: lane resets
  EXPECT_FALSE(wd.poll(300, 6, true));
  EXPECT_TRUE(wd.poll(400, 6, true));  // re-armed after the idle reset
}

TEST(ProgressWatchdog, ZeroWindowDisables) {
  sim::ProgressWatchdog wd(0);
  EXPECT_FALSE(wd.enabled());
  EXPECT_FALSE(wd.poll(1'000'000, 0, true));
}

// ---------------------------------------------------------------------------
// Injected starvation: the simulator watchdogs must convert a wedged memory
// system into a structured, diagnosable error instead of an endless spin.

TEST(Livelock, StalledChannelsTripClosedLoopWatchdog) {
  sim::SystemConfig cfg;
  cfg.cores = 1;
  cfg.progress_window_ticks = 20'000;
  cfg.audit.enabled = false;  // isolate the watchdog path
  cfg.fault.enabled = true;
  cfg.fault.stall_prob = 1.0;  // freeze every channel forever
  sched::HitFirstReadFirstScheduler sched;
  const std::vector<trace::AppProfile> apps = {trace::spec2000_by_name("swim")};
  sim::MultiCoreSystem sys(cfg, apps, sched, 1);
  try {
    sys.run(50'000, 0, 500'000);
    FAIL() << "expected LivelockError";
  } catch (const sim::LivelockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("livelock"), std::string::npos) << what;
    EXPECT_NE(what.find("core 0"), std::string::npos) << what;
    EXPECT_NE(e.state_dump().find("controller state"), std::string::npos);
    EXPECT_GE(e.tick(), cfg.progress_window_ticks);
    EXPECT_LT(e.tick(), Tick{500'000});  // caught well before the budget
  }
}

TEST(Livelock, DroppedReadsStarveTheCore) {
  // The "always-starving" case: every demand read is accepted and then lost,
  // so the core waits forever on a fill that never comes.
  sim::SystemConfig cfg;
  cfg.cores = 1;
  cfg.progress_window_ticks = 20'000;
  cfg.audit.enabled = false;
  cfg.fault.enabled = true;
  cfg.fault.drop_read_prob = 1.0;
  sched::HitFirstReadFirstScheduler sched;
  const std::vector<trace::AppProfile> apps = {trace::spec2000_by_name("swim")};
  sim::MultiCoreSystem sys(cfg, apps, sched, 1);
  EXPECT_THROW(sys.run(50'000, 0, 500'000), sim::LivelockError);
}

TEST(Livelock, StalledChannelsTripOpenLoopWatchdog) {
  sim::OpenLoopConfig cfg;
  cfg.warmup_ticks = 1'000;
  cfg.measure_ticks = 400'000;
  cfg.progress_window_ticks = 20'000;
  cfg.audit.enabled = false;
  cfg.fault.enabled = true;
  cfg.fault.stall_prob = 1.0;
  sched::HitFirstReadFirstScheduler sched;
  EXPECT_THROW(sim::run_open_loop(cfg, sched), sim::LivelockError);
}

TEST(Livelock, HealthyRunDoesNotTrip) {
  sim::SystemConfig cfg;
  cfg.cores = 1;
  cfg.progress_window_ticks = 20'000;  // tight window, healthy system
  sched::HitFirstReadFirstScheduler sched;
  const std::vector<trace::AppProfile> apps = {trace::spec2000_by_name("gzip")};
  sim::MultiCoreSystem sys(cfg, apps, sched, 1);
  const sim::RunResult r = sys.run(5'000, 0);
  EXPECT_FALSE(r.hit_tick_limit);
}

TEST(CycleBudget, ExperimentThrowsStructuredError) {
  sim::ExperimentConfig cfg;
  cfg.profile_insts = 500'000;
  cfg.max_ticks = 2'000;  // nowhere near enough
  sim::Experiment exp(cfg);
  try {
    exp.profile("swim");
    FAIL() << "expected CycleBudgetError";
  } catch (const sim::CycleBudgetError& e) {
    EXPECT_EQ(e.budget(), Tick{2'000});
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Fault injector: seeded, reproducible, and audited by the verification
// layer when it corrupts state.

TEST(FaultInjector, ValidatesKnobRanges) {
  mc::FaultConfig bad;
  bad.enabled = true;
  bad.drop_read_prob = 1.5;
  EXPECT_FALSE(bad.validate().empty());
  mc::FaultConfig good;
  good.enabled = true;
  good.dup_prob = 0.25;
  EXPECT_TRUE(good.validate().empty());
}

TEST(FaultInjector, SameSeedSameDecisions) {
  mc::FaultConfig fc;
  fc.enabled = true;
  fc.seed = 7;
  fc.drop_read_prob = 0.3;
  fc.dup_prob = 0.2;
  fc.delay_prob = 0.5;
  fc.delay_ticks_max = 16;
  mc::FaultInjector a(fc), b(fc);
  for (int i = 0; i < 500; ++i) {
    const auto fa = a.on_enqueue(i % 3 == 0);
    const auto fb = b.on_enqueue(i % 3 == 0);
    ASSERT_EQ(fa.drop, fb.drop) << "call " << i;
    ASSERT_EQ(fa.duplicate, fb.duplicate) << "call " << i;
    ASSERT_EQ(fa.delay_ticks, fb.delay_ticks) << "call " << i;
  }
  EXPECT_EQ(a.stats().total(), b.stats().total());
  EXPECT_GT(a.stats().total(), 0u);

  fc.seed = 8;
  mc::FaultInjector c(fc);
  fc.seed = 7;
  mc::FaultInjector a2(fc);
  bool diverged = false;
  for (int i = 0; i < 500 && !diverged; ++i) {
    const auto fa = a2.on_enqueue(false);
    const auto fcv = c.on_enqueue(false);
    diverged = fa.drop != fcv.drop || fa.duplicate != fcv.duplicate ||
               fa.delay_ticks != fcv.delay_ticks;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, PermanentStallFreezesChannel) {
  mc::FaultConfig fc;
  fc.enabled = true;
  fc.stall_prob = 1.0;
  mc::FaultInjector inj(fc);
  for (Tick t = 0; t < 10'000; t += 1'000) EXPECT_TRUE(inj.stall_command(0, t));
  mc::FaultConfig off;
  off.enabled = true;  // stall_prob 0
  mc::FaultInjector none(off);
  for (Tick t = 0; t < 10'000; t += 1'000) EXPECT_FALSE(none.stall_command(0, t));
}

TEST(FaultInjector, DroppedWritesAreCaughtByVerificationLayer) {
  // Chaos cross-check: induced request loss must register as lifecycle
  // violations in PR 1's audit layer (record mode), proving the checkers see
  // real corruption — not just clean runs.
  sim::SystemConfig cfg;
  cfg.cores = 1;
  cfg.audit.enabled = true;
  cfg.audit.abort_on_violation = false;
  cfg.fault.enabled = true;
  cfg.fault.seed = 11;
  cfg.fault.drop_write_prob = 0.5;
  sched::HitFirstReadFirstScheduler sched;
  const std::vector<trace::AppProfile> apps = {trace::spec2000_by_name("swim")};
  sim::MultiCoreSystem sys(cfg, apps, sched, 1);
  const sim::RunResult r = sys.run(20'000, 0);
  (void)r;
  ASSERT_NE(sys.fault_injector(), nullptr);
  EXPECT_GT(sys.fault_injector()->stats().dropped_writes, 0u);
  ASSERT_NE(sys.auditor(), nullptr);
#if MEMSCHED_VERIF_ENABLED
  // With the hooks compiled out (MEMSCHED_VERIF=OFF) the auditor sees no
  // events, so it can record no violation.
  EXPECT_GT(sys.auditor()->violation_count(), 0u);
#endif
}

// ---------------------------------------------------------------------------
// guarded_main: the binary-side half of the exit-code contract.

TEST(GuardedMain, MapsExceptionsToContractExitCodes) {
  EXPECT_EQ(harness::guarded_main("t", [] { return 0; }), harness::kExitOk);
  EXPECT_EQ(harness::guarded_main(
                "t", []() -> int { throw std::invalid_argument("bad key"); }),
            harness::kExitUsage);
  EXPECT_EQ(harness::guarded_main(
                "t", []() -> int { throw sim::LivelockError("livelock: x", 1, "dump"); }),
            harness::kExitLivelock);
  EXPECT_EQ(harness::guarded_main(
                "t", []() -> int { throw sim::CycleBudgetError("budget", 9); }),
            harness::kExitBudget);
  EXPECT_EQ(harness::guarded_main(
                "t", []() -> int { throw std::runtime_error("boom"); }),
            harness::kExitInternal);
}

// ---------------------------------------------------------------------------
// Manifest: atomic checkpoint + fingerprint-guarded resume.

TEST(Manifest, RoundTripsRecordsAndPayloadBytes) {
  const std::string path = tmp_path("manifest_roundtrip.json");
  std::remove(path.c_str());

  harness::Manifest m;
  m.open(path, "fp-a");
  harness::PointRecord rec;
  rec.name = "p0";
  rec.status = "ok";
  rec.category = "ok";
  rec.attempts = 2;
  rec.wall_ms = 12.5;
  rec.payload = R"({"v":1.25,"s":"quote\"and\nnewline"})";
  m.record(rec);

  harness::Manifest back;
  back.open(path, "fp-a");
  ASSERT_EQ(back.size(), 1u);
  const harness::PointRecord* r = back.find("p0");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->payload, rec.payload);  // byte-exact through the checkpoint
  EXPECT_EQ(r->attempts, 2u);
  EXPECT_TRUE(r->ok());
  std::remove(path.c_str());
}

TEST(Manifest, RefusesForeignFingerprint) {
  const std::string path = tmp_path("manifest_fp.json");
  std::remove(path.c_str());
  harness::Manifest m;
  m.open(path, "sweep-one");
  harness::PointRecord rec;
  rec.name = "p0";
  rec.status = "failed";
  m.record(rec);

  harness::Manifest other;
  EXPECT_THROW(other.open(path, "sweep-two"), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Grid definitions.

TEST(Grid, SampledEngineDefaultsCheckpointingOff) {
  // engine=sampled rejects checkpointing, so a default sampled sweep must
  // not hand its points a checkpoint directory; other engines keep it.
  // verify=0: ctest's MEMSCHED_VERIFY=1 would turn checkpointing off too.
  const auto ckpt_on = [](const char* engine) {
    util::Config cli;
    EXPECT_FALSE(cli.parse_token(std::string("engine=") + engine).has_value());
    EXPECT_FALSE(cli.parse_token("verify=0").has_value());
    return harness::grid_from_config(cli).ckpt_on;
  };
  EXPECT_FALSE(ckpt_on("sampled"));
  EXPECT_TRUE(ckpt_on("skip"));
  EXPECT_TRUE(ckpt_on("cycle"));
}

// ---------------------------------------------------------------------------
// Orchestrator: classification, retry, isolation, resume.

TEST(Orchestrator, RunsPointsAndSplicesPayloads) {
  harness::OrchestratorConfig oc = quick_config("ok");
  oc.isolate = false;
  harness::Orchestrator orch(oc);
  const harness::SweepSummary s =
      orch.run({ok_point("a", 1.0), ok_point("b", 2.0)});
  EXPECT_EQ(s.ok, 2u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_TRUE(s.complete());
  const util::Json rep = orch.report();
  EXPECT_EQ(rep.at("summary").at("gap_count").as_uint(), 0u);
  // Payloads are spliced verbatim (raw nodes), so navigate via a re-parse.
  const util::Json result =
      util::Json::parse(rep.at("points").at(0).at("result").dump(-1));
  EXPECT_DOUBLE_EQ(result.at("value").as_number(), 1.0);
}

// The child wrote its result, but the parent cannot read it back: the attempt
// fails with the read error, not as a child that wrote nothing.
TEST(Orchestrator, UnreadableResultNamesTheReadError) {
  harness::Orchestrator orch(quick_config("unreadable"));
  struct FailReads : util::FsFaultHooks {
    int fail_op(const char* op) override { return std::strcmp(op, "read") == 0 ? EIO : 0; }
  } eio;
  harness::SweepSummary s;
  {
    const util::ScopedFsFaults armed(&eio);
    s = orch.run({ok_point("p", 1.0)});
  }
  EXPECT_EQ(s.failed, 1u);
  const harness::PointRecord* r = orch.manifest().find("p");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->status, "failed");
  EXPECT_EQ(r->category, "internal");
  EXPECT_NE(r->error.find("cannot read result file"), std::string::npos) << r->error;
  EXPECT_NE(r->error.find(std::strerror(EIO)), std::string::npos) << r->error;
}

TEST(Orchestrator, RetriesThenRecordsFailureAndContinues) {
  harness::OrchestratorConfig oc = quick_config("retry");
  oc.isolate = false;
  oc.max_attempts = 3;
  harness::PointSpec bad;
  bad.name = "bad";
  bad.body = []() -> util::Json { throw std::invalid_argument("unknown key 'x'"); };
  harness::Orchestrator orch(oc);
  const harness::SweepSummary s = orch.run({bad, ok_point("good", 4.0)});
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.ok, 1u);  // the sweep did not stop at the failure
  const harness::PointRecord* r = orch.manifest().find("bad");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->status, "failed");
  EXPECT_EQ(r->category, "usage");
  EXPECT_EQ(r->exit_code, harness::kExitUsage);
  EXPECT_EQ(r->attempts, 3u);
  const util::Json rep = orch.report();
  EXPECT_EQ(rep.at("summary").at("gaps").at(0).as_string(), "bad");
}

TEST(Orchestrator, ForkedChildExitCodeIsClassified) {
  harness::OrchestratorConfig oc = quick_config("exitcode");
  harness::PointSpec p;
  p.name = "livelocked";
  p.body = []() -> util::Json {
    throw sim::LivelockError("livelock: injected point", 42, "dump text");
  };
  harness::Orchestrator orch(oc);
  const harness::SweepSummary s = orch.run({p});
  EXPECT_EQ(s.failed, 1u);
  const harness::PointRecord* r = orch.manifest().find("livelocked");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->status, "failed");
  EXPECT_EQ(r->category, "livelock");
  EXPECT_EQ(r->exit_code, harness::kExitLivelock);
  // The structured stderr line made it into the record.
  EXPECT_NE(r->error.find("\"category\":\"livelock\""), std::string::npos) << r->error;
}

TEST(Orchestrator, WallClockWatchdogKillsHungChild) {
  harness::OrchestratorConfig oc = quick_config("timeout");
  oc.timeout_seconds = 0.3;
  harness::PointSpec hung;
  hung.name = "hung";
  hung.body = []() -> util::Json {
    volatile std::uint64_t spin = 0;
    for (;;) spin = spin + 1;  // a wedge the in-process watchdogs cannot see
  };
  harness::Orchestrator orch(oc);
  const harness::SweepSummary s = orch.run({hung, ok_point("after", 1.0)});
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.ok, 1u);  // the point after the hang still ran
  const harness::PointRecord* r = orch.manifest().find("hung");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->status, "timeout");
  EXPECT_EQ(r->term_signal, SIGKILL);
}

TEST(Orchestrator, CrashIsRecordedWithSignal) {
  harness::OrchestratorConfig oc = quick_config("crash");
  harness::PointSpec crash;
  crash.name = "crash";
  crash.body = []() -> util::Json {
    std::abort();
  };
  harness::Orchestrator orch(oc);
  const harness::SweepSummary s = orch.run({crash});
  EXPECT_EQ(s.failed, 1u);
  const harness::PointRecord* r = orch.manifest().find("crash");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->status, "crash");
  EXPECT_EQ(r->term_signal, SIGABRT);
}

TEST(Orchestrator, InterruptedSweepResumesByteIdentical) {
  const std::string mA = tmp_path("resume_a.json");
  const std::string mB = tmp_path("resume_b.json");
  for (const std::string& m : {mA, mB}) {
    std::remove(m.c_str());
    std::remove((m + ".timing.json").c_str());
  }

  harness::PointSpec flaky;  // deterministic failure: same record every run
  flaky.name = "fails";
  flaky.body = []() -> util::Json { throw std::invalid_argument("always"); };
  const std::vector<harness::PointSpec> points = {ok_point("p0", 0.5), flaky,
                                                  ok_point("p2", 2.5)};

  // Interrupted run: the graceful-stop flag fires after two recorded
  // points, as a SIGTERM landing between points would.
  volatile std::sig_atomic_t stop = 0;
  std::size_t records = 0;
  harness::OrchestratorConfig oc1 = quick_config("resume1");
  oc1.isolate = false;
  oc1.manifest_path = mA;
  oc1.fingerprint = "resume-sweep";
  oc1.stop = &stop;
  oc1.on_record = [&stop, &records](const harness::PointRecord&) {
    if (++records == 2) stop = 1;
  };
  {
    harness::Orchestrator orch(oc1);
    const harness::SweepSummary s = orch.run(points);
    EXPECT_TRUE(s.interrupted);
    EXPECT_EQ(s.executed, 2u);
  }

  // Resume: completed points replay from the manifest, the rest run.
  harness::OrchestratorConfig oc2 = oc1;
  oc2.stop = nullptr;
  oc2.work_dir = tmp_path("work_resume2");
  harness::Orchestrator resumed(oc2);
  const harness::SweepSummary s2 = resumed.run(points);
  EXPECT_TRUE(s2.complete());
  EXPECT_EQ(s2.resumed, 1u);  // p0 came from the checkpoint

  // Uninterrupted reference sweep.
  harness::OrchestratorConfig oc3 = oc1;
  oc3.stop = nullptr;
  oc3.manifest_path = mB;
  oc3.work_dir = tmp_path("work_resume3");
  harness::Orchestrator reference(oc3);
  const harness::SweepSummary s3 = reference.run(points);
  EXPECT_TRUE(s3.complete());

  EXPECT_EQ(resumed.report().dump(2), reference.report().dump(2));
  std::remove(mA.c_str());
  std::remove(mB.c_str());
}

TEST(Orchestrator, ExecPointRunsExternalBinary) {
  harness::OrchestratorConfig oc = quick_config("exec");
  harness::PointSpec p;
  p.name = "true-cmd";
  p.argv = {"/bin/sh", "-c", "exit 0"};
  harness::PointSpec bad;
  bad.name = "usage-cmd";
  bad.argv = {"/bin/sh", "-c", "exit 2"};
  harness::Orchestrator orch(oc);
  const harness::SweepSummary s = orch.run({p, bad});
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(orch.manifest().find("usage-cmd")->category, "usage");
}

// ---------------------------------------------------------------------------
// Sweep fingerprinting (regression): the grid fingerprint is built on
// SystemConfig::fingerprint(), so EVERY result-affecting knob participates.
// The engine= knob shipped after the sweep tool froze its original inline
// fingerprint list — resuming a skip-engine manifest with engine=cycle then
// silently mixed incompatible points. These tests pin the fix.

TEST(GridFingerprint, EngineChangeInvalidates) {
  sim::ExperimentConfig cfg;
  const mc::FaultConfig no_fault;
  cfg.base.engine = sim::Engine::kSkip;
  const std::string skip =
      harness::grid_fingerprint(cfg, "2MEM-1", "HF-RF", no_fault, "");
  cfg.base.engine = sim::Engine::kCycle;
  const std::string cycle =
      harness::grid_fingerprint(cfg, "2MEM-1", "HF-RF", no_fault, "");
  EXPECT_NE(skip, cycle);
}

TEST(GridFingerprint, StableForIdenticalConfigs) {
  sim::ExperimentConfig a, b;
  const mc::FaultConfig no_fault;
  EXPECT_EQ(harness::grid_fingerprint(a, "2MEM-1,4MIX-1", "HF-RF", no_fault, ""),
            harness::grid_fingerprint(b, "2MEM-1,4MIX-1", "HF-RF", no_fault, ""));
}

TEST(GridFingerprint, EveryResultAffectingKnobParticipates) {
  const mc::FaultConfig no_fault;
  const auto fp = [&no_fault](const sim::ExperimentConfig& c) {
    return harness::grid_fingerprint(c, "2MEM-1", "HF-RF", no_fault, "");
  };
  const sim::ExperimentConfig base;
  sim::ExperimentConfig m = base;
  m.warmup_insts += 1;
  EXPECT_NE(fp(m), fp(base));
  m = base;
  m.base.progress_window_ticks += 1;
  EXPECT_NE(fp(m), fp(base));
  m = base;
  m.base.timing.tCL += 1;
  EXPECT_NE(fp(m), fp(base));
  m = base;
  m.eval_seed += 1;
  EXPECT_NE(fp(m), fp(base));
  m = base;
  mc::FaultConfig fault;
  fault.enabled = true;
  fault.delay_prob = 0.5;
  EXPECT_NE(harness::grid_fingerprint(base, "2MEM-1", "HF-RF", fault, ""),
            fp(base));
}

// ---------------------------------------------------------------------------
// Orchestrator checkpoint plumbing.

TEST(Orchestrator, BodyCkptGetsDirKeptAcrossRetriesRemovedOnSuccess) {
  harness::OrchestratorConfig oc = quick_config("body_ckpt");
  oc.isolate = false;
  oc.max_attempts = 2;
  harness::PointSpec p;
  p.name = "ckpt-point";
  // First attempt writes a marker into the per-point checkpoint dir and
  // fails; the retry must see the SAME dir with the marker intact (that is
  // what lets a real point resume from its snapshot), then succeed.
  p.body_ckpt = [](const std::string& ckpt_dir) {
    const std::string marker = ckpt_dir + "/marker";
    if (!std::ifstream(marker).good()) {
      std::ofstream(marker) << "attempt1";
      throw std::runtime_error("first attempt dies after checkpointing");
    }
    util::Json j = util::Json::object();
    j["resumed_from_marker"] = true;
    return j;
  };
  harness::Orchestrator orch(oc);
  const harness::SweepSummary s = orch.run({p});
  EXPECT_EQ(s.ok, 1u);
  const harness::PointRecord* rec = orch.manifest().find("ckpt-point");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->attempts, 2u);
  // The checkpoint dir is torn down once the point lands.
  EXPECT_FALSE(std::ifstream(oc.work_dir + "/point-0.ckpt.d/marker").good());
}

TEST(Orchestrator, ChildExitSixStopsSweepWithoutRecording) {
  harness::OrchestratorConfig oc = quick_config("interrupt6");
  oc.manifest_path = tmp_path("interrupt6.manifest");
  std::remove(oc.manifest_path.c_str());
  std::remove((oc.manifest_path + ".timing.json").c_str());
  harness::PointSpec a = ok_point("first", 1.0);
  harness::PointSpec b;
  b.name = "parked";
  b.argv = {"/bin/sh", "-c", "exit 6"};  // kExitInterrupted contract
  harness::PointSpec c = ok_point("never-reached", 3.0);
  harness::Orchestrator orch(oc);
  const harness::SweepSummary s = orch.run({a, b, c});
  EXPECT_TRUE(s.interrupted);
  EXPECT_FALSE(s.complete());
  EXPECT_EQ(s.ok, 1u);
  // The parked point is NOT recorded: the next invocation re-runs it (and a
  // real simulation then resumes from its snapshot).
  EXPECT_EQ(orch.manifest().find("parked"), nullptr);
  EXPECT_EQ(orch.manifest().find("never-reached"), nullptr);
}

// ---------------------------------------------------------------------------
// Cost model + dispatch order for the parallel executor.

TEST(CostModel, EstimateFallsBackHintThenOne) {
  harness::CostModel m;
  EXPECT_DOUBLE_EQ(m.estimate("x", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(m.estimate("x", 7.5), 7.5);
  m.observe("x", 123.0);
  EXPECT_DOUBLE_EQ(m.estimate("x", 7.5), 123.0);
  EXPECT_TRUE(m.has("x"));
  EXPECT_FALSE(m.has("y"));
}

TEST(CostModel, RoundTripsThroughSidecarFile) {
  const std::string path = tmp_path("cost_model.json");
  std::remove(path.c_str());
  harness::CostModel m;
  m.observe("slow", 900.0);
  m.observe("fast", 10.0);
  m.save(path);
  harness::CostModel n;
  n.load(path);
  EXPECT_EQ(n.size(), 2u);
  EXPECT_DOUBLE_EQ(n.estimate("slow", 0.0), 900.0);
  EXPECT_DOUBLE_EQ(n.estimate("fast", 0.0), 10.0);
  std::remove(path.c_str());
}

TEST(CostModel, CorruptOrMissingHistoryDegradesToHints) {
  const std::string path = tmp_path("cost_model_bad.json");
  { std::ofstream(path) << "this is not json"; }
  harness::CostModel m;
  m.load(path);  // must not throw — timing only orders dispatch
  EXPECT_EQ(m.size(), 0u);
  std::remove(path.c_str());
  m.load(path);  // missing file: same story
  EXPECT_EQ(m.size(), 0u);
}

TEST(Orchestrator, DispatchesLongestExpectedFirstThenIndex) {
  harness::OrchestratorConfig oc = quick_config("lpt_order");
  oc.isolate = false;
  // Without a manifest the timing history lives in the work dir; a stale
  // one would order by observed wall time instead of the hints.
  std::remove((oc.work_dir + "/timing.json").c_str());
  std::vector<std::size_t> ran;
  std::vector<harness::PointSpec> points;
  const double hints[] = {5.0, 9.0, 9.0, 1.0};
  for (std::size_t i = 0; i < 4; ++i) {
    harness::PointSpec p;
    p.name = "p" + std::to_string(i);
    p.cost_hint = hints[i];
    p.body = [&ran, i] {
      ran.push_back(i);
      return util::Json::object();
    };
    points.push_back(std::move(p));
  }
  harness::Orchestrator orch(oc);
  ASSERT_TRUE(orch.run(points).complete());
  // Ties are broken by index for determinism.
  EXPECT_EQ(ran, (std::vector<std::size_t>{1, 2, 0, 3}));
}

TEST(ResolveJobs, ExplicitEnvAndAutoFallback) {
  EXPECT_EQ(harness::resolve_jobs(3), 3u);
  ::setenv("MEMSCHED_JOBS", "2", 1);
  EXPECT_EQ(harness::resolve_jobs(0), 2u);
  ::setenv("MEMSCHED_JOBS", "not-a-number", 1);
  EXPECT_GE(harness::resolve_jobs(0), 1u);  // garbage env → hardware fallback
  ::unsetenv("MEMSCHED_JOBS");
  EXPECT_GE(harness::resolve_jobs(0), 1u);
}

// ---------------------------------------------------------------------------
// N-way process-pool executor: same records, same bytes, any width.

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A point that sleeps (to force out-of-order completion under the pool)
/// then reports a deterministic payload.
harness::PointSpec sleepy_point(const std::string& name, double value,
                                unsigned sleep_ms) {
  harness::PointSpec p;
  p.name = name;
  p.cost_hint = static_cast<double>(sleep_ms) + 1.0;
  p.body = [value, sleep_ms] {
    ::usleep(sleep_ms * 1000);
    util::Json j = util::Json::object();
    j["value"] = value;
    return j;
  };
  return p;
}

}  // namespace

TEST(OrchestratorPool, ManifestAndReportByteIdenticalToSerial) {
  const std::string mSerial = tmp_path("pool_vs_serial_a.manifest");
  const std::string mPool = tmp_path("pool_vs_serial_b.manifest");
  for (const std::string& m : {mSerial, mPool}) {
    std::remove(m.c_str());
    std::remove((m + ".timing.json").c_str());
  }

  // Sleeps shrink with the index, so under the pool later points finish
  // first — the exact completion order a naive append-to-manifest would leak.
  std::vector<harness::PointSpec> points;
  for (unsigned i = 0; i < 6; ++i) {
    points.push_back(sleepy_point("pt-" + std::to_string(i),
                                  static_cast<double>(i) * 0.25, (5 - i) * 20));
  }

  harness::OrchestratorConfig serial_cfg = quick_config("pool_serial");
  serial_cfg.manifest_path = mSerial;
  serial_cfg.fingerprint = "pool-sweep";
  serial_cfg.jobs = 1;
  harness::Orchestrator serial(serial_cfg);
  const harness::SweepSummary s1 = serial.run(points);
  EXPECT_TRUE(s1.complete());
  EXPECT_EQ(s1.jobs, 1u);

  harness::OrchestratorConfig pool_cfg = quick_config("pool_parallel");
  pool_cfg.manifest_path = mPool;
  pool_cfg.fingerprint = "pool-sweep";
  pool_cfg.jobs = 4;
  harness::Orchestrator pool(pool_cfg);
  const harness::SweepSummary s2 = pool.run(points);
  EXPECT_TRUE(s2.complete());
  EXPECT_EQ(s2.ok, 6u);
  EXPECT_EQ(s2.jobs, 4u);

  // The determinism contract: byte-for-byte, manifest and report.
  EXPECT_EQ(slurp(mSerial), slurp(mPool));
  EXPECT_EQ(serial.report().dump(2), pool.report().dump(2));
  // Wall clock lives in the sidecar, not the manifest.
  EXPECT_FALSE(slurp(mPool).find("wall") != std::string::npos);
  EXPECT_TRUE(slurp(mPool + ".timing.json").find("points") != std::string::npos);
}

TEST(OrchestratorPool, ChildrenSplitTheHostsThreads) {
  // Each child reports the thread count a sampled run inside it would
  // fast-forward on. Two points on four slots: two children run at once.
  std::vector<harness::PointSpec> points;
  for (const char* name : {"a", "b"}) {
    harness::PointSpec p;
    p.name = name;
    p.body = [] {
      util::Json j = util::Json::object();
      j["threads"] = sim::default_thread_count();
      return j;
    };
    points.push_back(std::move(p));
  }
  harness::OrchestratorConfig cfg = quick_config("pool_share");
  cfg.jobs = 4;
  harness::Orchestrator pool(cfg);
  ASSERT_TRUE(pool.run(points).complete());

  const unsigned hw = std::thread::hardware_concurrency();
  const util::Json rep = pool.report();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const util::Json result =
        util::Json::parse(rep.at("points").at(i).at("result").dump(-1));
    EXPECT_EQ(result.at("threads").as_uint(), std::max(1u, hw / 2)) << points[i].name;
  }
  // The pool's own process keeps every hardware thread.
  EXPECT_EQ(sim::default_thread_count(), std::max(1u, hw));
}

TEST(OrchestratorPool, RetriedFlakyPointMatchesSerialBytes) {
  const std::string mSerial = tmp_path("pool_retry_a.manifest");
  const std::string mPool = tmp_path("pool_retry_b.manifest");
  const std::string markerSerial = tmp_path("pool_retry_a.marker");
  const std::string markerPool = tmp_path("pool_retry_b.marker");
  for (const std::string& f : {mSerial, mPool, markerSerial, markerPool}) {
    std::remove(f.c_str());
    std::remove((f + ".timing.json").c_str());
  }

  const auto points_with = [](const std::string& marker) {
    harness::PointSpec flaky;
    flaky.name = "flaky";
    // First attempt dies AFTER leaving a marker; the retry sees the marker
    // and succeeds — deterministic two-attempt record either way.
    flaky.body = [marker]() -> util::Json {
      if (!std::ifstream(marker).good()) {
        std::ofstream(marker) << "seen";
        throw std::runtime_error("first attempt dies");
      }
      util::Json j = util::Json::object();
      j["value"] = 42.0;
      return j;
    };
    return std::vector<harness::PointSpec>{ok_point("a", 1.0), flaky,
                                           ok_point("b", 2.0)};
  };

  harness::OrchestratorConfig serial_cfg = quick_config("pool_retry_serial");
  serial_cfg.manifest_path = mSerial;
  serial_cfg.fingerprint = "retry-sweep";
  serial_cfg.jobs = 1;
  serial_cfg.max_attempts = 2;
  serial_cfg.backoff_seconds = 0.01;
  harness::Orchestrator serial(serial_cfg);
  EXPECT_TRUE(serial.run(points_with(markerSerial)).complete());

  harness::OrchestratorConfig pool_cfg = quick_config("pool_retry_pool");
  pool_cfg.manifest_path = mPool;
  pool_cfg.fingerprint = "retry-sweep";
  pool_cfg.jobs = 3;
  pool_cfg.max_attempts = 2;
  pool_cfg.backoff_seconds = 0.01;
  harness::Orchestrator pool(pool_cfg);
  const harness::SweepSummary s = pool.run(points_with(markerPool));
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.ok, 3u);

  const harness::PointRecord* rec = pool.manifest().find("flaky");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->attempts, 2u);
  EXPECT_EQ(slurp(mSerial), slurp(mPool));
}

TEST(OrchestratorPool, KilledWorkerRecordedThenResumeRepairsByteIdentical) {
  const std::string mPool = tmp_path("pool_kill.manifest");
  const std::string mRef = tmp_path("pool_kill_ref.manifest");
  const std::string marker = tmp_path("pool_kill.marker");
  const std::string markerRef = tmp_path("pool_kill_ref.marker");
  for (const std::string& f : {mPool, mRef, marker, markerRef}) {
    std::remove(f.c_str());
    std::remove((f + ".timing.json").c_str());
  }

  const auto points_with = [](const std::string& m) {
    harness::PointSpec victim;
    victim.name = "victim";
    // Simulates losing the worker process itself: first run, the forked
    // child is SIGKILLed mid-point (after leaving a marker); later runs
    // complete normally.
    victim.body = [m]() -> util::Json {
      if (!std::ifstream(m).good()) {
        std::ofstream(m) << "died here";
        ::raise(SIGKILL);
      }
      util::Json j = util::Json::object();
      j["value"] = 9.0;
      return j;
    };
    return std::vector<harness::PointSpec>{ok_point("a", 1.0), victim,
                                           ok_point("b", 2.0), ok_point("c", 3.0)};
  };

  harness::OrchestratorConfig cfg = quick_config("pool_kill");
  cfg.manifest_path = mPool;
  cfg.fingerprint = "kill-sweep";
  cfg.jobs = 3;
  {
    harness::Orchestrator orch(cfg);
    const harness::SweepSummary s = orch.run(points_with(marker));
    EXPECT_TRUE(s.complete());  // crash recorded as a gap, sweep still lands
    EXPECT_EQ(s.failed, 1u);
    const harness::PointRecord* rec = orch.manifest().find("victim");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->status, "crash");
    EXPECT_EQ(rec->term_signal, SIGKILL);
  }

  // Resume: the three ok points replay from the manifest; ONLY the lost
  // point re-runs (and now succeeds past its marker).
  harness::OrchestratorConfig resume_cfg = cfg;
  resume_cfg.work_dir = tmp_path("work_pool_kill_resume");
  harness::Orchestrator resumed(resume_cfg);
  const harness::SweepSummary s2 = resumed.run(points_with(marker));
  EXPECT_TRUE(s2.complete());
  EXPECT_EQ(s2.resumed, 3u);
  EXPECT_EQ(s2.executed, 1u);
  EXPECT_EQ(s2.ok, 4u);

  // Uninterrupted serial reference (marker pre-created: victim never dies).
  { std::ofstream(markerRef) << "precreated"; }
  harness::OrchestratorConfig ref_cfg = quick_config("pool_kill_ref");
  ref_cfg.manifest_path = mRef;
  ref_cfg.fingerprint = "kill-sweep";
  ref_cfg.jobs = 1;
  harness::Orchestrator reference(ref_cfg);
  EXPECT_TRUE(reference.run(points_with(markerRef)).complete());

  EXPECT_EQ(slurp(mPool), slurp(mRef));
  EXPECT_EQ(resumed.report().dump(2), reference.report().dump(2));
}

TEST(OrchestratorPool, WatchdogKillsHungChildOthersComplete) {
  harness::OrchestratorConfig cfg = quick_config("pool_timeout");
  cfg.jobs = 2;
  cfg.timeout_seconds = 0.3;
  harness::PointSpec hung;
  hung.name = "hung";
  hung.body = [] {
    ::usleep(5 * 1000 * 1000);
    return util::Json::object();
  };
  harness::Orchestrator orch(cfg);
  const harness::SweepSummary s =
      orch.run({hung, ok_point("a", 1.0), ok_point("b", 2.0)});
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.ok, 2u);
  EXPECT_EQ(s.failed, 1u);
  const harness::PointRecord* rec = orch.manifest().find("hung");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->status, "timeout");
}

TEST(OrchestratorPool, ChildExitSixHaltsPoolWithoutRecordingIt) {
  harness::OrchestratorConfig cfg = quick_config("pool_exit6");
  cfg.manifest_path = tmp_path("pool_exit6.manifest");
  std::remove(cfg.manifest_path.c_str());
  std::remove((cfg.manifest_path + ".timing.json").c_str());
  cfg.jobs = 2;
  harness::PointSpec parked;
  parked.name = "parked";
  parked.argv = {"/bin/sh", "-c", "exit 6"};  // kExitInterrupted contract
  harness::Orchestrator orch(cfg);
  const harness::SweepSummary s =
      orch.run({parked, ok_point("a", 1.0), ok_point("b", 2.0)});
  EXPECT_TRUE(s.interrupted);
  EXPECT_FALSE(s.complete());
  // The parked point must stay unrecorded so the next invocation re-runs it.
  EXPECT_EQ(orch.manifest().find("parked"), nullptr);
}

// ---------------------------------------------------------------------------
// Grid sweeps end to end. The pins hash whole report bytes, so nothing about
// how a point reaches its result (where its single-core references are
// simulated, how many times, on which process) may show in the output.

namespace {

harness::GridSpec grid_of(std::initializer_list<const char*> tokens) {
  util::Config cli;
  for (const char* kv : tokens) EXPECT_FALSE(cli.parse_token(kv).has_value()) << kv;
  return harness::grid_from_config(cli);
}

/// 2MEM-1 and 4MIX-1 x HF-RF, ME-LREQ, TCM, two slices per point, with
/// fault injection on one point (its references key apart from the rest).
harness::GridSpec pinned_grid() {
  return grid_of({"workloads=2MEM-1,4MIX-1", "schemes=HF-RF,ME-LREQ,TCM", "insts=5000",
                  "profile_insts=10000", "warmup=5000", "repeats=2", "verify=0",
                  "fault=1", "fault.delay=0.3", "fault.points=2MEM-1/TCM"});
}

/// engine=sampled with profiling runs long enough to fast-forward.
harness::GridSpec pinned_sampled_grid() {
  return grid_of({"workloads=2MEM-1", "schemes=HF-RF,ME-LREQ", "engine=sampled",
                  "insts=20000", "profile_insts=400000", "warmup=5000", "repeats=1",
                  "verify=0"});
}

/// Every alone run needs more ticks than the budget; profiling runs fit.
harness::GridSpec budget_grid() {
  harness::GridSpec spec =
      grid_of({"workloads=2MEM-1,4MIX-1", "schemes=HF-RF,ME-LREQ", "insts=20000",
               "profile_insts=2000", "warmup=1000", "repeats=1", "verify=0"});
  spec.cfg.max_ticks = 1500;
  return spec;
}

struct GridRun {
  harness::SweepSummary summary;
  std::string report;
  std::string manifest;
  util::Json timing;
};

/// Runs `points` of `spec` into manifest `tag`; `fresh` wipes the manifest,
/// its sidecar and the work dir first (a cold run).
GridRun run_grid(const harness::GridSpec& spec,
                 const std::vector<harness::PointSpec>& points, const std::string& tag,
                 std::uint32_t jobs, bool isolate = true, bool fresh = true) {
  harness::OrchestratorConfig oc = quick_config(tag);
  oc.manifest_path = tmp_path(tag + ".manifest");
  if (fresh) {
    std::remove(oc.manifest_path.c_str());
    std::remove((oc.manifest_path + ".timing.json").c_str());
    std::filesystem::remove_all(oc.work_dir);
  }
  oc.fingerprint = harness::fingerprint(spec);
  oc.jobs = jobs;
  oc.isolate = isolate;
  harness::Orchestrator orch(oc);
  GridRun r;
  r.summary = orch.run(points);
  r.report = orch.report().dump(2);
  r.manifest = slurp(oc.manifest_path);
  r.timing = orch.timing_report();
  return r;
}

// FNV-1a of report().dump(2) for the grids above, recorded before the sweep
// pool computed references once per run.
constexpr std::uint64_t kPinnedGridReport = 0x0191f243c583af1dULL;
constexpr std::uint64_t kPinnedSampledReport = 0xcc66b5d1ec31884fULL;
constexpr std::uint64_t kPinnedBudgetReport = 0xa3c43b0c22b23d23ULL;

}  // namespace

TEST(GridSweep, ReportBytesArePinned) {
  const harness::GridSpec spec = pinned_grid();
  const GridRun r = run_grid(spec, harness::grid_points(spec), "pin_grid", 2);
  EXPECT_TRUE(r.summary.complete());
  EXPECT_EQ(r.summary.ok, 6u);
  EXPECT_EQ(golden::fnv1a_str(r.report), kPinnedGridReport) << r.report;
}

TEST(GridSweep, SampledReportBytesArePinned) {
  const harness::GridSpec spec = pinned_sampled_grid();
  const GridRun r = run_grid(spec, harness::grid_points(spec), "pin_sampled", 2);
  EXPECT_TRUE(r.summary.complete());
  EXPECT_EQ(r.summary.ok, 2u);
  EXPECT_EQ(golden::fnv1a_str(r.report), kPinnedSampledReport) << r.report;
}

// The sweep identity (manifest, report) and the result-cache identity of a
// grid with no keys set and of one that sets every grid key, fault.* too.
TEST(GridSweep, FingerprintsArePinned) {
  const harness::GridSpec none = grid_of({});
  const harness::GridSpec every = grid_of(
      {"workloads=2MEM-1,4MIX-1", "schemes=HF-RF,BLISS", "insts=12345", "repeats=2",
       "warmup=777", "profile_insts=54321", "seed=9", "profile_seed=77",
       "interleave=page", "engine=cycle", "verify=1", "progress_window=123456",
       "ckpt=0", "ckpt_interval=4096", "fault=1", "fault.seed=7", "fault.drop_read=0.01",
       "fault.drop_write=0.02", "fault.dup=0.03", "fault.delay=0.04",
       "fault.delay_max=50", "fault.stall=0.05", "fault.stall_ticks=60",
       "fault.points=2MEM-1/BLISS"});
  const std::string fp[] = {harness::fingerprint(none), harness::config_fingerprint(none),
                            harness::fingerprint(every),
                            harness::config_fingerprint(every)};
  const std::uint64_t pinned[] = {0x70f6cb740f089889ULL, 0x88e9db2241a08dceULL,
                                  0x007fb2ff1dbd3c65ULL, 0xf3a1c2bf4263a3f0ULL};
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(golden::fnv1a_str(fp[i]), pinned[i]) << fp[i];
}

TEST(GridSweep, BudgetFailuresArePinned) {
  // Every point fails on an alone run's tick budget; the records (status,
  // category, error text) are part of the pinned bytes.
  const harness::GridSpec spec = budget_grid();
  const GridRun r = run_grid(spec, harness::grid_points(spec), "pin_budget", 2);
  EXPECT_TRUE(r.summary.complete());
  EXPECT_EQ(r.summary.failed, 4u);
  EXPECT_EQ(golden::fnv1a_str(r.report), kPinnedBudgetReport) << r.report;
}

// ---------------------------------------------------------------------------
// The reference phase: Orchestrator::run simulates each distinct single-core
// reference once per run, in one child, before the points fork.

namespace {

// The pinned grid needs 4 apps x (1 profiling + 2 alone runs) = 12 shared
// references (2MEM-1's two apps are among 4MIX-1's four). Its fault-injected
// point 2MEM-1/TCM keys its 2 x 3 apart and simulates them itself.
constexpr std::uint64_t kSharedReferences = 12;
constexpr std::uint64_t kChaosReferences = 6;

/// Adds to each grid point's payload how many reference simulations the
/// point ran itself.
std::vector<harness::PointSpec> counting(std::vector<harness::PointSpec> points) {
  for (harness::PointSpec& p : points) {
    EXPECT_TRUE(p.body_ckpt) << "expected a checkpointing grid";
    p.body_ckpt = [body = p.body_ckpt](const std::string& dir) {
      const std::uint64_t before = sim::ReferenceTable::simulations();
      util::Json j = body(dir);
      j["own_references"] = sim::ReferenceTable::simulations() - before;
      return j;
    };
  }
  return points;
}

/// Stands in for a grid's shared state with a reference child that fails
/// the given way; install() and release() go to the real state.
class BrokenShare final : public harness::SharedWork {
 public:
  enum class Mode { kCrash, kHang, kThrow, kGarbage };
  BrokenShare(std::shared_ptr<harness::SharedWork> inner, Mode mode)
      : inner_(std::move(inner)), mode_(mode) {}

  void compute(const std::vector<std::string>&, std::uint32_t, const std::string&,
               const std::string& out_path) const override {
    switch (mode_) {
      case Mode::kCrash:
        std::abort();
      case Mode::kHang:
        for (;;) ::pause();
      case Mode::kThrow:
        throw std::invalid_argument("no references today");
      case Mode::kGarbage:
        std::ofstream(out_path) << "not a reference table";
        return;
    }
  }
  std::size_t install(const std::string& path) override { return inner_->install(path); }
  void release() override { inner_->release(); }

 private:
  std::shared_ptr<harness::SharedWork> inner_;
  Mode mode_;
};

std::vector<harness::PointSpec> with_share(std::vector<harness::PointSpec> points,
                                           BrokenShare::Mode mode) {
  const auto broken = std::make_shared<BrokenShare>(points.at(0).shared, mode);
  for (harness::PointSpec& p : points) p.shared = broken;
  return points;
}

}  // namespace

TEST(GridSweep, EachReferenceSimulatedOncePerRun) {
  const harness::GridSpec spec = pinned_grid();
  const std::vector<harness::PointSpec> points = counting(harness::grid_points(spec));
  for (const auto& [jobs, isolate] : {std::pair{1u, true}, {3u, true}, {1u, false}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs) + " isolate=" + std::to_string(isolate));
    const std::uint64_t before = sim::ReferenceTable::simulations();
    const GridRun r = run_grid(spec, points, "once", jobs, isolate);
    ASSERT_TRUE(r.summary.complete());
    const util::Json& refs = r.timing.at("references");
    EXPECT_TRUE(refs.at("ran").as_bool());
    EXPECT_FALSE(refs.at("fell_back").as_bool()) << refs.at("diagnosis").as_string();
    EXPECT_EQ(refs.at("computed").as_uint(), kSharedReferences);
    const util::Json report = util::Json::parse(r.report);
    for (const util::Json& p : report.at("points").elements()) {
      const bool chaos = p.at("name").as_string() == "2MEM-1/TCM";
      EXPECT_EQ(p.at("result").at("own_references").as_uint(),
                chaos ? kChaosReferences : 0u)
          << p.at("name").as_string();
    }
    // Isolated, both the phase and the points ran in children; in-process,
    // everything ran here.
    EXPECT_EQ(sim::ReferenceTable::simulations() - before,
              isolate ? 0u : kSharedReferences + kChaosReferences);
  }
}

TEST(GridSweep, SameBytesAtEveryWidthAndInProcess) {
  const harness::GridSpec spec = pinned_grid();
  const std::vector<harness::PointSpec> points = harness::grid_points(spec);
  const GridRun serial = run_grid(spec, points, "width", 1);
  EXPECT_EQ(golden::fnv1a_str(serial.report), kPinnedGridReport);
  for (const auto& [jobs, isolate] : {std::pair{4u, true}, {1u, false}}) {
    const GridRun r = run_grid(spec, points, "width", jobs, isolate);
    EXPECT_EQ(r.report, serial.report) << "jobs=" << jobs << " isolate=" << isolate;
    EXPECT_EQ(r.manifest, serial.manifest) << "jobs=" << jobs << " isolate=" << isolate;
  }
  const harness::GridSpec sampled = pinned_sampled_grid();
  const GridRun s = run_grid(sampled, harness::grid_points(sampled), "width_sampled", 1);
  EXPECT_EQ(golden::fnv1a_str(s.report), kPinnedSampledReport);
  const harness::GridSpec budget = budget_grid();
  const GridRun b = run_grid(budget, harness::grid_points(budget), "width_budget", 1);
  EXPECT_EQ(golden::fnv1a_str(b.report), kPinnedBudgetReport);
}

TEST(GridSweep, SecondColdRunRecomputesReferences) {
  // The table lives for one run(): nothing is remembered across runs of the
  // same points, in any process.
  const harness::GridSpec spec = pinned_grid();
  const std::vector<harness::PointSpec> points = harness::grid_points(spec);
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t before = sim::ReferenceTable::simulations();
    const GridRun r = run_grid(spec, points, "recompute", 1, /*isolate=*/false);
    EXPECT_EQ(golden::fnv1a_str(r.report), kPinnedGridReport) << "pass " << pass;
    EXPECT_EQ(sim::ReferenceTable::simulations() - before,
              kSharedReferences + kChaosReferences)
        << "pass " << pass;
  }
}

TEST(GridSweep, WarmResumedAndExecRunsForkNoReferenceChild) {
  const harness::GridSpec spec = pinned_grid();
  const std::vector<harness::PointSpec> points = harness::grid_points(spec);
  const auto phase_ran = [](const GridRun& r) {
    return r.timing.at("references").at("ran").as_bool();
  };

  // Resumed: every point is already ok in the manifest.
  ASSERT_TRUE(phase_ran(run_grid(spec, points, "no_phase", 2)));
  const GridRun resumed = run_grid(spec, points, "no_phase", 2, true, /*fresh=*/false);
  EXPECT_EQ(resumed.summary.resumed, points.size());
  EXPECT_FALSE(phase_ran(resumed));
  EXPECT_EQ(golden::fnv1a_str(resumed.report), kPinnedGridReport);

  // Warm: every point is served from the result cache.
  const std::string cache_dir = tmp_path("no_phase_cache");
  std::filesystem::remove_all(cache_dir);
  for (const bool warm : {false, true}) {
    harness::OrchestratorConfig oc = quick_config(warm ? "warm" : "cold");
    std::filesystem::remove_all(oc.work_dir);
    oc.fingerprint = harness::fingerprint(spec);
    oc.cache_dir = cache_dir;
    oc.jobs = 2;
    harness::Orchestrator orch(oc);
    const harness::SweepSummary s = orch.run(points);
    EXPECT_EQ(s.cache_hits, warm ? points.size() : 0u);
    EXPECT_EQ(orch.timing_report().at("references").at("ran").as_bool(), !warm);
    EXPECT_EQ(golden::fnv1a_str(orch.report().dump(2)), kPinnedGridReport);
  }

  // Exec points never share work, even when handed a hook.
  harness::PointSpec exec;
  exec.name = "exec";
  exec.argv = {"/bin/sh", "-c", "exit 0"};
  exec.shared = points[0].shared;
  harness::Orchestrator orch(quick_config("no_phase_exec"));
  EXPECT_TRUE(orch.run({exec}).complete());
  EXPECT_FALSE(orch.timing_report().at("references").at("ran").as_bool());
}

TEST(GridSweep, FailedReferenceChildFallsBackToSameRecords) {
  const harness::GridSpec spec = pinned_grid();
  const std::vector<harness::PointSpec> points = harness::grid_points(spec);
  using Mode = BrokenShare::Mode;
  for (const auto& [mode, category] :
       {std::pair{Mode::kCrash, "crash: child killed by signal 6"},
        {Mode::kThrow, "usage: "},
        {Mode::kGarbage, "internal: "}}) {
    const GridRun r = run_grid(spec, with_share(points, mode), "fallback", 2);
    EXPECT_EQ(golden::fnv1a_str(r.report), kPinnedGridReport) << category;
    const util::Json& refs = r.timing.at("references");
    EXPECT_TRUE(refs.at("fell_back").as_bool()) << category;
    EXPECT_EQ(refs.at("computed").as_uint(), 0u);
    EXPECT_EQ(refs.at("diagnosis").as_string().rfind(category, 0), 0u)
        << refs.at("diagnosis").as_string();
  }

  // A hung reference child meets the per-point watchdog. Small grid: the
  // points must finish well within the same watchdog.
  const harness::GridSpec small =
      grid_of({"workloads=2MEM-1", "schemes=HF-RF", "insts=5000", "profile_insts=10000",
               "warmup=5000", "repeats=1", "verify=0"});
  const std::vector<harness::PointSpec> small_points = harness::grid_points(small);
  const GridRun expected = run_grid(small, small_points, "fallback_hang_ref", 1);
  harness::OrchestratorConfig oc = quick_config("fallback_hang");
  std::filesystem::remove_all(oc.work_dir);
  oc.fingerprint = harness::fingerprint(small);
  oc.timeout_seconds = 3.0;
  harness::Orchestrator orch(oc);
  EXPECT_TRUE(orch.run(with_share(small_points, Mode::kHang)).complete());
  EXPECT_EQ(orch.report().dump(2), expected.report);
  const util::Json timing = orch.timing_report();
  const std::string& diagnosis = timing.at("references").at("diagnosis").as_string();
  EXPECT_EQ(diagnosis.rfind("timeout: ", 0), 0u) << diagnosis;
}

TEST(GridSweep, StopDuringReferencePhaseRecordsNothing) {
  const harness::GridSpec spec = pinned_grid();
  const std::vector<harness::PointSpec> points = harness::grid_points(spec);
  harness::OrchestratorConfig oc = quick_config("stop_refs");
  oc.manifest_path = tmp_path("stop_refs.manifest");
  std::remove(oc.manifest_path.c_str());
  std::remove((oc.manifest_path + ".timing.json").c_str());
  std::filesystem::remove_all(oc.work_dir);
  oc.fingerprint = harness::fingerprint(spec);
  oc.jobs = 2;
  volatile std::sig_atomic_t stop = 1;  // already set: lands during the phase
  oc.stop = &stop;
  {
    harness::Orchestrator orch(oc);
    const harness::SweepSummary s = orch.run(points);
    EXPECT_TRUE(s.interrupted);
    EXPECT_EQ(s.ok + s.failed, 0u);
    EXPECT_EQ(orch.manifest().size(), 0u);
    EXPECT_TRUE(orch.timing_report().at("references").at("ran").as_bool());
  }
  stop = 0;
  harness::Orchestrator resumed(oc);
  EXPECT_TRUE(resumed.run(points).complete());
  EXPECT_EQ(golden::fnv1a_str(resumed.report().dump(2)), kPinnedGridReport);
}

TEST(GridSweep, TimingReportDescribesReferencePhase) {
  const harness::GridSpec spec = pinned_grid();
  const std::vector<harness::PointSpec> points = harness::grid_points(spec);
  const GridRun r = run_grid(spec, points, "timing_refs", 2);
  const util::Json& refs = r.timing.at("references");
  EXPECT_TRUE(refs.at("ran").as_bool());
  EXPECT_EQ(refs.at("computed").as_uint(), kSharedReferences);
  EXPECT_GT(refs.at("wall_ms").as_number(), 0.0);
  EXPECT_FALSE(refs.at("fell_back").as_bool());
  EXPECT_EQ(refs.at("diagnosis").as_string(), "");
  // The reference child is not a point.
  ASSERT_EQ(r.timing.at("points").members().size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(r.timing.at("points").members()[i].first, points[i].name);

  // The end of the phase is a liveness beat: an empty record.
  harness::OrchestratorConfig oc = quick_config("timing_refs_beat");
  std::filesystem::remove_all(oc.work_dir);
  oc.fingerprint = harness::fingerprint(spec);
  std::vector<std::string> beats;
  oc.on_record = [&beats](const harness::PointRecord& rec) { beats.push_back(rec.name); };
  harness::Orchestrator orch(oc);
  ASSERT_TRUE(orch.run(points).complete());
  ASSERT_EQ(beats.size(), points.size() + 1);
  EXPECT_EQ(beats[0], "");

  // The first failing reference ends the phase; the diagnosis names it.
  const harness::GridSpec budget = budget_grid();
  const GridRun b = run_grid(budget, harness::grid_points(budget), "timing_budget", 2);
  const util::Json& brefs = b.timing.at("references");
  EXPECT_TRUE(brefs.at("fell_back").as_bool());
  EXPECT_NE(brefs.at("diagnosis").as_string().find("tick budget"), std::string::npos)
      << brefs.at("diagnosis").as_string();
}
