#!/bin/sh
# Small-quota benchmark regression gate against the checked-in baseline.
#
#   tools/bench_gate.sh [BASELINE]
#
# Runs the `vhdlc bench` suite under a tiny per-experiment quota and
# diffs it against BASELINE (default: BENCH_report.json at the repo
# root) with a deliberately generous threshold, so tier-1 stays green
# across machines while a genuine order-of-magnitude regression still
# fails the build.  Exit status is vhdlc's: 0 clean, 1 regression(s),
# 2 unreadable baseline.
#
# Environment:
#   VHDLC                 path to a built vhdlc executable; when unset
#                         the script builds bin/vhdlc.exe itself (do NOT
#                         leave it unset inside a dune rule — nested dune
#                         invocations deadlock on the build lock)
#   BENCH_GATE_BASELINE   baseline report path (overrides $1)
#   BENCH_GATE_THRESHOLD  regression threshold fraction (default 3.0,
#                         i.e. flag only >4x slowdowns; tightened from
#                         6.0 when the plan evaluator and copy elision
#                         landed so the win stays locked in)
#   BENCH_GATE_QUOTA      per-experiment measurement quota in seconds
#                         (default 0.25)
#   BENCH_GATE_REPEATS    measured repetitions per experiment (default 3)
#   BENCH_GATE_ALLOC_THRESHOLD
#                         allocation (bytes/compile) regression threshold
#                         fraction (default 0.5 — allocation is near-
#                         deterministic rep to rep, so +50% is far above
#                         noise while a planted 2x blow-up fails the gate)
set -eu
cd "$(dirname "$0")/.."

BASELINE=${BENCH_GATE_BASELINE:-${1:-BENCH_report.json}}
THRESHOLD=${BENCH_GATE_THRESHOLD:-3.0}
ALLOC_THRESHOLD=${BENCH_GATE_ALLOC_THRESHOLD:-0.5}
QUOTA=${BENCH_GATE_QUOTA:-0.25}
REPEATS=${BENCH_GATE_REPEATS:-3}

if [ ! -f "$BASELINE" ]; then
  echo "bench_gate: no baseline at $BASELINE — run 'vhdlc bench --save-baseline $BASELINE' first" >&2
  exit 2
fi

if [ -z "${VHDLC:-}" ]; then
  dune build bin/vhdlc.exe
  VHDLC=_build/default/bin/vhdlc.exe
fi

exec "$VHDLC" bench --against "$BASELINE" --threshold "$THRESHOLD" \
  --alloc-threshold "$ALLOC_THRESHOLD" --quota "$QUOTA" --repeats "$REPEATS" \
  --warmup 0
