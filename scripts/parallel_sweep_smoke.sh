#!/bin/sh
# Parallel sweep smoke: proves the N-way process pool's contracts on real
# binaries (the unit tests emulate workers in-process; this script uses real
# processes and real signals).
#
# jobs=1 is the same pool with one worker slot; the jobs=1 runs below are
# the references the wider runs must match.
#
#   1. The determinism contract: the same grid swept at jobs=4 and jobs=1
#      must produce byte-identical manifests and reports — completion order,
#      dispatch order, and pool width must never leak into the output.
#   2. Worker loss: one worker child SIGKILLed mid-pool is recorded as a
#      crash gap, the rest of the sweep completes; the next invocation
#      re-runs ONLY the lost point (resuming from its snapshot) and the
#      repaired report is byte-identical to an uninterrupted jobs=1 run.
#   3. Graceful stop, at jobs=4 and at jobs=1: SIGTERM to the sweep fans out
#      to every live worker, each parks its state, the sweep exits with the
#      "interrupted" contract code (6), and the resume is byte-identical.
#
# Usage: scripts/parallel_sweep_smoke.sh [build-dir]   (default: build)
set -eu

# Checkpointing degrades to off under the invariant auditor (its shadow state
# is not snapshotted), so an inherited MEMSCHED_VERIFY=1 would hang the
# snapshot wait loop in the SIGTERM leg. Pin it off.
unset MEMSCHED_VERIFY 2> /dev/null || true

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SWEEP="$BUILD/tools/memsched_sweep"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

[ -x "$SWEEP" ] || { echo "parallel_sweep_smoke: $SWEEP not built" >&2; exit 1; }

# Small sensitivity grid (8 points) for the pure determinism check.
GRID="workloads=2MEM-1,4MEM-1 schemes=HF-RF,ME-LREQ,FCFS,FCFS-RF,BLISS,TCM,CADS insts=20000 \
      profile_insts=60000 repeats=1 timeout=240 quiet=1"

echo "== pool 1: jobs=4 vs jobs=1 -> byte-identical manifest and report =="
"$SWEEP" grid $GRID jobs=1 manifest="$WORK/serial.m" report="$WORK/serial.r" \
    > /dev/null
"$SWEEP" grid $GRID jobs=4 manifest="$WORK/pool.m" report="$WORK/pool.r" \
    > /dev/null
cmp "$WORK/serial.m" "$WORK/pool.m" ||
    { echo "parallel_sweep_smoke: manifests differ across jobs=" >&2; exit 1; }
cmp "$WORK/serial.r" "$WORK/pool.r" ||
    { echo "parallel_sweep_smoke: reports differ across jobs=" >&2; exit 1; }
echo "  jobs=4 output is byte-identical to jobs=1"

# Long-running points (cycle engine + checkpointing) so signals land
# mid-flight and the resume has snapshots to start from.
KGRID="workloads=2MEM-1,4MEM-1 schemes=HF-RF,ME-LREQ insts=2000000 repeats=1 \
       engine=cycle timeout=240 quiet=1"

echo "== pool 2: SIGKILL one worker mid-pool; resume repairs the gap =="
"$SWEEP" grid $KGRID jobs=1 manifest="$WORK/kref.m" report="$WORK/kref.r" \
    > /dev/null
"$SWEEP" grid $KGRID jobs=4 manifest="$WORK/kill.m" report="$WORK/unused.r" \
    > /dev/null 2>&1 &
PID=$!
CHILD=""
i=0
while [ $i -lt 200 ]; do
  CHILD="$(pgrep -P "$PID" 2> /dev/null | head -n 1 || true)"
  [ -n "$CHILD" ] && break
  sleep 0.05
  i=$((i + 1))
done
[ -n "$CHILD" ] ||
    { echo "parallel_sweep_smoke: no worker child appeared" >&2; exit 1; }
sleep 0.3  # let the victim get some simulation (and ideally a snapshot) done
kill -KILL "$CHILD" 2> /dev/null || true
wait "$PID" || true  # lost point is a recorded gap; the sweep still lands
"$SWEEP" grid $KGRID jobs=4 manifest="$WORK/kill.m" report="$WORK/kill.r" \
    > /dev/null
cmp "$WORK/kref.r" "$WORK/kill.r" ||
    { echo "parallel_sweep_smoke: repaired report differs from reference" >&2
      exit 1; }
cmp "$WORK/kref.m" "$WORK/kill.m" ||
    { echo "parallel_sweep_smoke: repaired manifest differs from reference" >&2
      exit 1; }
echo "  lost worker re-ran on resume; report is byte-identical"

# At jobs=1 the one worker gets SIGTERM through the same fan-out as at jobs=4.
for JOBS in 4 1; do
  echo "== pool 3 (jobs=$JOBS): SIGTERM fans out, exit 6, resume -> byte-identical =="
  TERM_M="$WORK/term$JOBS.m"
  "$SWEEP" grid $KGRID jobs=$JOBS manifest="$TERM_M" report="$WORK/unused2.r" \
      > /dev/null 2>&1 &
  PID=$!
  i=0
  until ls "$TERM_M".work/point-*.ckpt.d/*.ckpt > /dev/null 2>&1; do
    [ $i -lt 600 ] ||
        { echo "parallel_sweep_smoke: no snapshot appeared within 30s" >&2
          exit 1; }
    sleep 0.05
    i=$((i + 1))
  done
  kill -TERM "$PID" 2> /dev/null || true
  RC=0
  wait "$PID" || RC=$?
  [ "$RC" -eq 6 ] ||
      { echo "parallel_sweep_smoke: expected exit 6 (interrupted) at jobs=$JOBS," \
             "got $RC" >&2
        exit 1; }
  "$SWEEP" grid $KGRID jobs=$JOBS manifest="$TERM_M" report="$WORK/term.r" \
      > /dev/null
  cmp "$WORK/kref.r" "$WORK/term.r" ||
      { echo "parallel_sweep_smoke: post-SIGTERM resumed report differs" \
             "at jobs=$JOBS" >&2
        exit 1; }
  echo "  graceful stop honored at jobs=$JOBS; resumed report byte-identical"
done

echo "PARALLEL SWEEP SMOKE PASSED"
