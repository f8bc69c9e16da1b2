#!/bin/sh
# Sweep-daemon smoke: proves the crash-safe serve loop end to end on real
# binaries (unit tests drive the daemon inline and in-process; this script
# uses real forked runners, real SIGKILL/SIGTERM against a real daemon).
#
#   1. A submitted grid must produce a report byte-identical to the same
#      grid run through `memsched_sweep grid` directly, and resubmitting the
#      identical grid must collapse onto the finished job.
#   2. A daemon SIGKILLed at arbitrary instants mid-job must lose nothing:
#      `memsched_served check` heals any torn WAL tail, a restarted daemon
#      recovers the job, the client's retry resubmission deduplicates, and
#      the final report is byte-identical.
#   3. SIGTERM is a graceful drain: exit code 6 (interrupted contract), no
#      torn queue bytes, and the restarted daemon — at a different
#      orchestrator pool width — resumes to the byte-identical report.
#   4. A daemon with filesystem faults injected into the queue I/O path
#      (MEMSCHED_FSFAULT: short writes, ENOSPC, EIO, bit flips) must
#      keep serving — degraded at worst, never wrong, never down — and still
#      deliver the byte-identical report.
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SWEEP="$BUILD/tools/memsched_sweep"
SERVED="$BUILD/tools/memsched_served"
CTL="$BUILD/tools/memsched_submitctl"
WORK="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

[ -x "$SWEEP" ] || { echo "serve_smoke: $SWEEP not built" >&2; exit 1; }
[ -x "$SERVED" ] || { echo "serve_smoke: $SERVED not built" >&2; exit 1; }
[ -x "$CTL" ] || { echo "serve_smoke: $CTL not built" >&2; exit 1; }

GRID="workloads=2MEM-1 schemes=FCFS,HF-RF,ME-LREQ insts=15000 profile_insts=50000"

start_daemon() {
  # start_daemon <state-dir> [extra daemon args...]
  STATE="$1"
  shift
  "$SERVED" start socket="$WORK/d.sock" state="$STATE" quiet=1 "$@" &
  DAEMON_PID=$!
  "$CTL" ping socket="$WORK/d.sock" retries=50 > /dev/null ||
      { echo "serve_smoke: daemon did not come up" >&2; exit 1; }
}

# Reference report: the same grid through the CLI sweep tool, no daemon.
"$SWEEP" grid $GRID manifest="$WORK/ref.m" report="$WORK/ref.r" quiet=1 > /dev/null

echo "== serve 1: submitted job is byte-identical to the CLI sweep =="
start_daemon "$WORK/s1"
"$CTL" submit socket="$WORK/d.sock" wait=1 timeout=240 $GRID > /dev/null
"$CTL" result socket="$WORK/d.sock" id=1 out="$WORK/s1.r"
cmp "$WORK/ref.r" "$WORK/s1.r" ||
    { echo "serve_smoke: daemon report differs from CLI sweep" >&2; exit 1; }
# Exactly-once: the identical grid collapses onto job 1, already done.
"$CTL" submit socket="$WORK/d.sock" $GRID | grep -q "job 1 done (duplicate)" ||
    { echo "serve_smoke: duplicate submission was not collapsed" >&2; exit 1; }
"$CTL" drain socket="$WORK/d.sock" > /dev/null
wait "$DAEMON_PID" || { echo "serve_smoke: drained daemon exited nonzero" >&2; exit 1; }
DAEMON_PID=""
echo "  report byte-identical; duplicate collapsed; drain exited 0"

echo "== serve 2: SIGKILL mid-job loses nothing, restart recovers =="
for DELAY in 0.05 0.20 0.45; do
  rm -rf "$WORK/s2"
  start_daemon "$WORK/s2"
  "$CTL" submit socket="$WORK/d.sock" $GRID > /dev/null
  sleep "$DELAY"
  kill -KILL "$DAEMON_PID" 2> /dev/null || true
  wait "$DAEMON_PID" 2> /dev/null || true
  DAEMON_PID=""
  # First check may report (and heal) a torn tail from the kill; the second
  # must find a clean queue with the job still present.
  "$SERVED" check state="$WORK/s2" > /dev/null 2>&1 || true
  "$SERVED" check state="$WORK/s2" | grep -q "check: 1 job(s)" ||
      { echo "serve_smoke: job lost after SIGKILL at ${DELAY}s" >&2; exit 1; }
  # Restart; the client retries its submission (exactly-once: deduplicated)
  # and waits the recovered job out.
  start_daemon "$WORK/s2"
  "$CTL" submit socket="$WORK/d.sock" wait=1 timeout=240 $GRID > /dev/null
  "$CTL" result socket="$WORK/d.sock" id=1 out="$WORK/s2.r"
  cmp "$WORK/ref.r" "$WORK/s2.r" ||
      { echo "serve_smoke: post-SIGKILL report differs (${DELAY}s)" >&2; exit 1; }
  "$CTL" drain socket="$WORK/d.sock" > /dev/null
  wait "$DAEMON_PID" || { echo "serve_smoke: drain after recovery failed" >&2; exit 1; }
  DAEMON_PID=""
done
echo "  3 kills, zero lost jobs, all reports byte-identical"

echo "== serve 3: SIGTERM drains gracefully (exit 6), warm restart at jobs=3 =="
start_daemon "$WORK/s3"
"$CTL" submit socket="$WORK/d.sock" $GRID > /dev/null
sleep 0.2
kill -TERM "$DAEMON_PID"
RC=0
wait "$DAEMON_PID" || RC=$?
DAEMON_PID=""
[ "$RC" = 6 ] ||
    { echo "serve_smoke: SIGTERM exit code was $RC, want 6" >&2; exit 1; }
# A graceful drain never tears the WAL: check must be clean on the first try.
"$SERVED" check state="$WORK/s3" > /dev/null ||
    { echo "serve_smoke: queue dirty after graceful drain" >&2; exit 1; }
start_daemon "$WORK/s3" jobs=3
"$CTL" wait socket="$WORK/d.sock" id=1 timeout=240 ||
    { echo "serve_smoke: recovered job did not finish" >&2; exit 1; }
"$CTL" result socket="$WORK/d.sock" id=1 out="$WORK/s3.r"
cmp "$WORK/ref.r" "$WORK/s3.r" ||
    { echo "serve_smoke: warm jobs=3 report differs" >&2; exit 1; }
"$CTL" drain socket="$WORK/d.sock" > /dev/null
wait "$DAEMON_PID" || { echo "serve_smoke: drain after warm restart failed" >&2; exit 1; }
DAEMON_PID=""
echo "  graceful exit 6; clean queue; warm jobs=3 report byte-identical"

echo "== serve 4: injected queue fs faults degrade, never lose or corrupt =="
CHAOS="seed=20260808,short_write=0.3,enospc=0.2,eio=0.15,bitflip=0.2"
MEMSCHED_FSFAULT="$CHAOS" "$SERVED" start socket="$WORK/d.sock" \
    state="$WORK/s4" quiet=1 &
DAEMON_PID=$!
"$CTL" ping socket="$WORK/d.sock" retries=50 > /dev/null ||
    { echo "serve_smoke: chaos daemon did not come up" >&2; exit 1; }
"$CTL" submit socket="$WORK/d.sock" wait=1 timeout=240 $GRID > /dev/null ||
    { echo "serve_smoke: chaos daemon lost the submission" >&2; exit 1; }
"$CTL" result socket="$WORK/d.sock" id=1 out="$WORK/s4.r"
cmp "$WORK/ref.r" "$WORK/s4.r" ||
    { echo "serve_smoke: chaos report differs" >&2; exit 1; }
"$CTL" drain socket="$WORK/d.sock" > /dev/null
wait "$DAEMON_PID" || { echo "serve_smoke: chaos drain failed" >&2; exit 1; }
DAEMON_PID=""
# Without the fault env the queue must replay clean (a degraded daemon
# compacts its way back to a healthy WAL before serving).
"$SERVED" check state="$WORK/s4" > /dev/null ||
    { echo "serve_smoke: chaos queue did not heal" >&2; exit 1; }
echo "  chaos daemon served the byte-identical report; queue healed"

echo "SERVE SMOKE PASSED"
