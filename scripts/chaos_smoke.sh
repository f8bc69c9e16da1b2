#!/bin/sh
# Chaos smoke: proves the fault-tolerance layer end to end on real binaries.
#
#   1. A sweep with an injected livelock (permanently stalled channels on one
#      point) must record that point as a structured failure and still finish
#      the remaining points with exit code 0 — graceful degradation.
#   2. A sweep SIGKILLed mid-flight must resume from its manifest and produce
#      a final report byte-identical to an uninterrupted run.
#   3. A sweep whose result cache is under filesystem fault injection
#      (MEMSCHED_FSFAULT) must degrade cache I/O to miss-and-resimulate
#      and still produce the byte-identical report with exit 0. Deeper cache
#      coverage (kill matrices, fsck repair) lives in scripts/cache_smoke.sh.
#
# Usage: scripts/chaos_smoke.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SWEEP="$BUILD/tools/memsched_sweep"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

[ -x "$SWEEP" ] || { echo "chaos_smoke: $SWEEP not built" >&2; exit 1; }

# Small but long enough that a wedged point would spin for minutes without
# the watchdog — the progress window is what terminates it.
ARGS="workloads=2MEM-1 schemes=HF-RF,ME-LREQ insts=15000 profile_insts=50000 \
      progress_window=100000 timeout=240 quiet=1"

echo "== chaos 1: injected livelock is recorded, sweep still succeeds =="
"$SWEEP" grid $ARGS fault=1 fault.stall=1 fault.points=2MEM-1/HF-RF \
    manifest="$WORK/chaos.manifest.json" report="$WORK/chaos.report.json"
grep -q '"category": "livelock"' "$WORK/chaos.report.json" ||
    { echo "chaos_smoke: no livelock failure recorded" >&2; exit 1; }
grep -q '"gap_count": 1' "$WORK/chaos.report.json" ||
    { echo "chaos_smoke: expected exactly one gap" >&2; exit 1; }
grep -q '"status": "ok"' "$WORK/chaos.report.json" ||
    { echo "chaos_smoke: surviving point missing from report" >&2; exit 1; }
echo "  livelock recorded as gap; surviving point completed; exit 0"

echo "== chaos 2: SIGKILL mid-sweep, then resume -> byte-identical report =="
# Enough points that the kill reliably lands while the sweep is mid-flight.
ARGS2="workloads=2MEM-1 schemes=FCFS,FCFS-RF,HF-RF,LREQ,ME,ME-LREQ,BLISS,TCM,CADS \
       insts=15000 profile_insts=50000 progress_window=100000 \
       timeout=240 quiet=1"
# Reference: uninterrupted run.
"$SWEEP" grid $ARGS2 manifest="$WORK/ref.manifest.json" \
    report="$WORK/ref.report.json"
# Victim: killed hard after the first point checkpoints, then resumed
# against the same manifest.
"$SWEEP" grid $ARGS2 manifest="$WORK/vic.manifest.json" \
    report="$WORK/unused.report.json" &
PID=$!
while [ ! -s "$WORK/vic.manifest.json" ]; do sleep 0.1; done
kill -KILL "$PID" 2> /dev/null || true
wait "$PID" 2> /dev/null || true
DONE=$(grep -c '"name"' "$WORK/vic.manifest.json" || true)
echo "  killed with $DONE/6 points checkpointed"
RESUME_OUT=$("$SWEEP" grid $ARGS2 manifest="$WORK/vic.manifest.json" \
    report="$WORK/vic.report.json")
echo "$RESUME_OUT" | grep -q "(0 resumed)" &&
    { echo "chaos_smoke: resume replayed nothing from the manifest" >&2; exit 1; }
cmp "$WORK/ref.report.json" "$WORK/vic.report.json" ||
    { echo "chaos_smoke: resumed report differs from reference" >&2; exit 1; }
echo "  resumed report is byte-identical to the uninterrupted run"

echo "== chaos 3: result cache under fs faults degrades, never fails =="
CHAOS="seed=42,short_write=0.4,enospc=0.25,eio=0.2,bitflip=0.25"
MEMSCHED_FSFAULT="$CHAOS" "$SWEEP" grid $ARGS2 \
    cache="$WORK/store" manifest="$WORK/cc.manifest.json" \
    report="$WORK/cc.report.json" > /dev/null 2>&1 ||
    { echo "chaos_smoke: faulted cached sweep failed" >&2; exit 1; }
cmp "$WORK/ref.report.json" "$WORK/cc.report.json" ||
    { echo "chaos_smoke: faulted cached report differs" >&2; exit 1; }
MEMSCHED_FSFAULT="$CHAOS" "$SWEEP" grid $ARGS2 \
    cache="$WORK/store" manifest="$WORK/cw.manifest.json" \
    report="$WORK/cw.report.json" > /dev/null 2>&1 ||
    { echo "chaos_smoke: faulted warm cached sweep failed" >&2; exit 1; }
cmp "$WORK/ref.report.json" "$WORK/cw.report.json" ||
    { echo "chaos_smoke: faulted warm cached report differs" >&2; exit 1; }
echo "  cached sweeps under fs faults: exit 0, byte-identical reports"

echo "CHAOS SMOKE PASSED"
