#!/bin/sh
# Result-cache smoke: proves the crash-safe content-addressed cache end to
# end on real binaries (unit tests emulate torn commits in-process; this
# script uses real SIGKILL against real sweeps).
#
#   1. A warm --cache re-run (manifest deleted, store populated) must serve
#      every point from the cache and produce a report byte-identical to the
#      cold run — at jobs=1 and jobs=4.
#   2. Sweeps SIGKILLed at arbitrary instants while populating the cache must
#      never leave a torn entry: memsched_cachectl verify reports zero
#      corrupt entries after every kill, fsck reclaims whatever the dead
#      writers left behind (intents, tmp files), and the next sweep
#      self-heals to the byte-identical report.
#   3. A sweep with filesystem faults injected into the cache I/O path
#      (short writes, ENOSPC, EIO, read bit-flips via MEMSCHED_FSFAULT)
#      must degrade to miss-and-resimulate — exit 0, byte-identical report —
#      and never serve corrupt bytes.
#
# Usage: scripts/cache_smoke.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SWEEP="$BUILD/tools/memsched_sweep"
CTL="$BUILD/tools/memsched_cachectl"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

[ -x "$SWEEP" ] || { echo "cache_smoke: $SWEEP not built" >&2; exit 1; }
[ -x "$CTL" ] || { echo "cache_smoke: $CTL not built" >&2; exit 1; }

ARGS="workloads=2MEM-1 schemes=FCFS,FCFS-RF,HF-RF,LREQ,ME,ME-LREQ,BLISS,TCM,CADS \
      insts=15000 profile_insts=50000 timeout=240 quiet=1"

# Reference report: no cache involved at all.
"$SWEEP" grid $ARGS manifest="$WORK/ref.m" report="$WORK/ref.r" > /dev/null

echo "== cache 1: warm re-run is byte-identical to cold, jobs=1 and jobs=4 =="
COLD_OUT=$("$SWEEP" grid $ARGS cache="$WORK/store1" manifest="$WORK/cold.m" \
    report="$WORK/cold.r")
cmp "$WORK/ref.r" "$WORK/cold.r" ||
    { echo "cache_smoke: cold cached report differs from uncached" >&2; exit 1; }
# The grid size comes from the sweep itself, so it cannot drift from ARGS.
POINTS=$(echo "$COLD_OUT" | sed -n 's/^sweep: \([0-9]*\) points.*/\1/p')
[ -n "$POINTS" ] ||
    { echo "cache_smoke: cold run printed no 'sweep: N points' line" >&2; exit 1; }
rm -f "$WORK/cold.m" "$WORK/cold.m.timing.json"
WARM_OUT=$("$SWEEP" grid $ARGS cache="$WORK/store1" manifest="$WORK/warm1.m" \
    report="$WORK/warm1.r" --jobs 1)
echo "$WARM_OUT" | grep -q "cache: $POINTS hits" ||
    { echo "cache_smoke: warm run did not serve all $POINTS points" >&2; exit 1; }
cmp "$WORK/ref.r" "$WORK/warm1.r" ||
    { echo "cache_smoke: warm jobs=1 report differs" >&2; exit 1; }
"$SWEEP" grid $ARGS cache="$WORK/store1" manifest="$WORK/warm4.m" \
    report="$WORK/warm4.r" --jobs 4 > /dev/null
cmp "$WORK/ref.r" "$WORK/warm4.r" ||
    { echo "cache_smoke: warm jobs=4 report differs" >&2; exit 1; }
cmp "$WORK/warm1.m" "$WORK/warm4.m" ||
    { echo "cache_smoke: warm manifests differ across pool widths" >&2; exit 1; }
echo "  all $POINTS points served from cache; reports byte-identical at both widths"

echo "== cache 2: SIGKILL while populating never tears an entry =="
for DELAY in 0.05 0.10 0.15 0.20 0.30 0.45; do
  rm -f "$WORK/kill.m" "$WORK/kill.m.timing.json"
  "$SWEEP" grid $ARGS cache="$WORK/store2" manifest="$WORK/kill.m" \
      report="$WORK/kill.r" > /dev/null 2>&1 &
  PID=$!
  sleep "$DELAY"
  kill -KILL "$PID" 2> /dev/null || true
  wait "$PID" 2> /dev/null || true
  # The store must be corruption-free at every instant: entries are created
  # only by atomic rename. Leftover intents/tmp files are legal (that's what
  # the kill leaves) — torn entries are not.
  "$CTL" verify dir="$WORK/store2" | grep -q " 0 corrupt," ||
      { echo "cache_smoke: torn entry after SIGKILL at ${DELAY}s" >&2; exit 1; }
done
"$CTL" stats dir="$WORK/store2"
# Reclaim dead writers' leftovers, then the store must verify clean under
# strict (no corrupt entries, no intents, no tmp orphans).
"$CTL" fsck dir="$WORK/store2" lease=0
"$CTL" verify dir="$WORK/store2" strict=1 > /dev/null ||
    { echo "cache_smoke: store not clean after fsck" >&2; exit 1; }
# Self-heal: the next sweep fills whatever the kills left missing and the
# report comes out byte-identical.
rm -f "$WORK/kill.m" "$WORK/kill.m.timing.json"
"$SWEEP" grid $ARGS cache="$WORK/store2" manifest="$WORK/kill.m" \
    report="$WORK/kill.r" > /dev/null
cmp "$WORK/ref.r" "$WORK/kill.r" ||
    { echo "cache_smoke: post-kill report differs" >&2; exit 1; }
echo "  6 kills, zero torn entries; fsck cleaned the store; report identical"

echo "== cache 3: injected fs faults degrade to resimulation, never failure =="
CHAOS="seed=20260808,short_write=0.4,enospc=0.25,eio=0.2,bitflip=0.25"
MEMSCHED_FSFAULT="$CHAOS" "$SWEEP" grid $ARGS cache="$WORK/store3" \
    manifest="$WORK/chaos_cold.m" report="$WORK/chaos_cold.r" > /dev/null 2>&1 ||
    { echo "cache_smoke: faulted cold sweep failed" >&2; exit 1; }
cmp "$WORK/ref.r" "$WORK/chaos_cold.r" ||
    { echo "cache_smoke: faulted cold report differs" >&2; exit 1; }
MEMSCHED_FSFAULT="$CHAOS" "$SWEEP" grid $ARGS cache="$WORK/store3" \
    manifest="$WORK/chaos_warm.m" report="$WORK/chaos_warm.r" > /dev/null 2>&1 ||
    { echo "cache_smoke: faulted warm sweep failed" >&2; exit 1; }
cmp "$WORK/ref.r" "$WORK/chaos_warm.r" ||
    { echo "cache_smoke: faulted warm report differs" >&2; exit 1; }
"$CTL" verify dir="$WORK/store3" | grep -q " 0 corrupt," ||
    { echo "cache_smoke: faulted store serves corrupt entries" >&2; exit 1; }
echo "  both faulted sweeps exited 0 with byte-identical reports"

echo "CACHE SMOKE PASSED"
