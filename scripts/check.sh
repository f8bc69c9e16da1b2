#!/bin/sh
# Full local gate: configure, build, run the test suite, and smoke every
# bench/tool/example with small parameters. Exits nonzero on any failure.
set -eu

cd "$(dirname "$0")/.."
# Reuse whatever generator an existing build tree was configured with.
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
else
  cmake -B build -G Ninja
fi
cmake --build build
# Hard wall-clock cap: a wedged test must fail the gate, not hang it.
timeout 2400 ctest --test-dir build --output-on-failure

echo "== memsched-lint (determinism & contract checks, see docs/static-analysis.md) =="
scripts/run_lint.sh build
echo "  memsched-lint ok"

echo "== clang-tidy =="
if command -v clang-tidy > /dev/null 2>&1; then
  find src -name '*.cpp' -print | xargs clang-tidy -p build --quiet
  echo "  clang-tidy ok"
else
  echo "  clang-tidy not installed; skipped"
fi

echo "== bench smoke (small parameters, protocol/invariant checkers on) =="
export MEMSCHED_VERIFY=1
for b in table2_memory_efficiency fig3_fixed_priority fig4_read_latency \
         fig5_fairness; do
  ./build/bench/$b insts=40000 repeats=1 profile_insts=100000 > /dev/null
  echo "  $b ok"
done
./build/bench/fig2_smt_speedup insts=30000 repeats=1 profile_insts=80000 > /dev/null
echo "  fig2_smt_speedup ok"
./build/bench/micro_components --benchmark_min_time=0.01 > /dev/null
echo "  micro_components ok"
# Tiny grid; the table-quality run is documented in EXPERIMENTS.md.
./build/bench/sampled_error_speedup insts=60000 reps=1 profile_insts=80000 \
    intervals=2 interval_insts=2000 sample_warmup=1000 \
    workloads=2MEM-1 schemes=HF-RF,ME-LREQ out=/tmp/BENCH_sampled_error.json \
    > /dev/null
rm -f /tmp/BENCH_sampled_error.json
echo "  sampled_error_speedup ok"

echo "== engine throughput gate (cycle vs skip, see docs/performance.md) =="
# BENCH_throughput.json carries the per-case speedups and the busy-load
# aggregate (busy_load.mticks_per_s). The gate is ratcheted: a committed
# hot-path win must be folded into bench/baselines/ via
#   python3 scripts/check_throughput.py --update-baseline /tmp/BENCH_throughput.json
# and the update refuses to loosen the baseline (see the script docstring).
./build/bench/sim_throughput out=/tmp/BENCH_throughput.json > /dev/null
python3 scripts/check_throughput.py /tmp/BENCH_throughput.json
rm -f /tmp/BENCH_throughput.json

echo "== tool smoke =="
./build/tools/memsched_sim run workload=2MEM-1 scheme=ME-LREQ insts=20000 \
    profile_insts=60000 repeats=1 > /dev/null
./build/tools/memsched_trace gen app=swim insts=10000 out=/tmp/check_trace.bin
./build/tools/memsched_trace info in=/tmp/check_trace.bin > /dev/null
rm -f /tmp/check_trace.bin
echo "  tools ok"

# The bench-smoke MEMSCHED_VERIFY export must not leak into the smoke
# scripts below: checkpointing is inert under the auditor, and the ckpt and
# parallel-sweep smokes wait on snapshot files appearing.
unset MEMSCHED_VERIFY

echo "== chaos smoke (fault injection + kill/resume, see docs/robustness.md) =="
scripts/chaos_smoke.sh build > /dev/null
echo "  chaos smoke ok"

echo "== ckpt smoke (SIGKILL/SIGTERM + snapshot resume, see docs/robustness.md) =="
scripts/ckpt_smoke.sh build > /dev/null
echo "  ckpt smoke ok"

echo "== parallel sweep smoke (jobs=N determinism + worker loss, see docs/performance.md) =="
scripts/parallel_sweep_smoke.sh build > /dev/null
echo "  parallel sweep smoke ok"

echo "== serve smoke (sweep daemon kill/restart + queue faults, see docs/robustness.md) =="
scripts/serve_smoke.sh build > /dev/null
echo "  serve smoke ok"

echo "== cache smoke (result-cache kill matrix + fs faults, see docs/robustness.md) =="
scripts/cache_smoke.sh build > /dev/null
echo "  cache smoke ok"

echo "== sweep scaling (wall-clock at jobs=1/2/4 -> BENCH_sweep.json) =="
python3 scripts/check_sweep_scaling.py build --out /tmp/BENCH_sweep.json
rm -f /tmp/BENCH_sweep.json

# Soft line-coverage floor for src/ (enforced by the CI coverage job via
# scripts/coverage.sh). Not run here by default — it rebuilds the whole tree
# instrumented; opt in with MEMSCHED_CHECK_COVERAGE=1.
MEMSCHED_COVERAGE_FLOOR=80
if [ "${MEMSCHED_CHECK_COVERAGE:-0}" = 1 ]; then
  echo "== coverage (soft floor ${MEMSCHED_COVERAGE_FLOOR}%) =="
  scripts/coverage.sh "$MEMSCHED_COVERAGE_FLOOR"
fi

echo "ALL CHECKS PASSED"
