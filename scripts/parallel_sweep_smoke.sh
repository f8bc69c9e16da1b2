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
#   2. Worker loss: one point worker SIGKILLed mid-pool (after the reference
#      phase, once a point has snapshotted) is recorded as exactly one crash
#      gap, the rest of the sweep completes; the next invocation re-runs ONLY
#      the lost point (resuming from its snapshot) and the repaired report is
#      byte-identical to an uninterrupted jobs=1 run.
#   3. Graceful stop, at jobs=4 and at jobs=1: SIGTERM to the sweep fans out
#      to every live worker, each parks its state, the sweep exits with the
#      "interrupted" contract code (6), and the resume is byte-identical.
#   4. The reference phase (one child that simulates every distinct
#      single-core reference before the points fork): SIGTERM during it
#      exits 6 with no report and nothing recorded; SIGKILL of the sweep and
#      that child leaves its snapshots, which the next invocation resumes
#      from. Both resumed reports are byte-identical.
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
# A point snapshot means the reference phase is over, so every child of the
# sweep is now a point worker (the reference child would fall back, not
# lose a point).
i=0
until ls "$WORK/kill.m".work/point-*.ckpt.d/*.ckpt > /dev/null 2>&1; do
  [ $i -lt 600 ] ||
      { echo "parallel_sweep_smoke: no point snapshot appeared within 30s" >&2
        exit 1; }
  sleep 0.05
  i=$((i + 1))
done
CHILD="$(pgrep -P "$PID" 2> /dev/null | head -n 1 || true)"
[ -n "$CHILD" ] ||
    { echo "parallel_sweep_smoke: no worker child appeared" >&2; exit 1; }
kill -KILL "$CHILD" 2> /dev/null || true
wait "$PID" || true  # lost point is a recorded gap; the sweep still lands
CRASHES="$(grep -o '"status": *"crash"' "$WORK/kill.m" | wc -l)"
[ "$CRASHES" -eq 1 ] ||
    { echo "parallel_sweep_smoke: expected one crash record after the kill," \
           "found $CRASHES" >&2
      exit 1; }
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

# Waits up to 30 s for a snapshot of the reference phase of manifest $1.
wait_for_reference_snapshot() {
  i=0
  until ls "$1".work/references.ckpt.d/*.ckpt > /dev/null 2>&1; do
    [ $i -lt 600 ] ||
        { echo "parallel_sweep_smoke: no reference snapshot within 30s" >&2
          exit 1; }
    sleep 0.05
    i=$((i + 1))
  done
}

echo "== pool 4: SIGTERM during the reference phase, exit 6, resume -> byte-identical =="
REF_M="$WORK/refterm.m"
"$SWEEP" grid $KGRID jobs=4 manifest="$REF_M" report="$WORK/refterm.r" \
    > /dev/null 2>&1 &
PID=$!
wait_for_reference_snapshot "$REF_M"
kill -TERM "$PID" 2> /dev/null || true
RC=0
wait "$PID" || RC=$?
[ "$RC" -eq 6 ] ||
    { echo "parallel_sweep_smoke: expected exit 6 from a stop in the reference" \
           "phase, got $RC" >&2
      exit 1; }
[ ! -f "$WORK/refterm.r" ] ||
    { echo "parallel_sweep_smoke: interrupted sweep wrote a report" >&2; exit 1; }
if grep -q '"name"' "$REF_M" 2> /dev/null; then
  echo "parallel_sweep_smoke: a stop in the reference phase recorded a point" >&2
  exit 1
fi
"$SWEEP" grid $KGRID jobs=4 manifest="$REF_M" report="$WORK/refterm.r" > /dev/null
cmp "$WORK/kref.r" "$WORK/refterm.r" ||
    { echo "parallel_sweep_smoke: report resumed after a reference-phase stop" \
           "differs" >&2
      exit 1; }
echo "  stop in the reference phase: exit 6, nothing recorded; resume byte-identical"

echo "== pool 4 (SIGKILL): the reference snapshots survive and the resume uses them =="
REF_M="$WORK/refkill.m"
"$SWEEP" grid $KGRID jobs=1 manifest="$REF_M" report="$WORK/refkill.r" \
    > /dev/null 2>&1 &
PID=$!
wait_for_reference_snapshot "$REF_M"
CHILD="$(pgrep -P "$PID" 2> /dev/null || true)"
kill -KILL "$PID" 2> /dev/null || true
[ -z "$CHILD" ] || kill -KILL $CHILD 2> /dev/null || true
wait "$PID" 2> /dev/null || true
ls "$REF_M".work/references.ckpt.d/*.ckpt > /dev/null 2>&1 ||
    { echo "parallel_sweep_smoke: reference snapshots did not survive SIGKILL" >&2
      exit 1; }
"$SWEEP" grid $KGRID jobs=1 manifest="$REF_M" report="$WORK/refkill.r" > /dev/null
cmp "$WORK/kref.r" "$WORK/refkill.r" ||
    { echo "parallel_sweep_smoke: report resumed after a reference-phase kill" \
           "differs" >&2
      exit 1; }
if grep -q snapshot_fallback "$REF_M".work/references.stderr; then
  echo "parallel_sweep_smoke: the resumed reference phase rejected a snapshot" >&2
  exit 1
fi
[ ! -d "$REF_M".work/references.ckpt.d ] ||
    { echo "parallel_sweep_smoke: reference snapshots outlived the phase" >&2
      exit 1; }
echo "  killed reference phase resumed from its snapshots; report byte-identical"

echo "PARALLEL SWEEP SMOKE PASSED"
