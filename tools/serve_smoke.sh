#!/bin/sh
# serve_smoke.sh — CI gate for the resilient compile service.
#
# Five checks:
#   1. chaos burst: vhdlfuzz --serve-chaos forks a daemon and fires a mixed
#      healthy/faulty campaign; the zero-deaths invariant, the telemetry
#      ledger (requests = answered + shed + client_gone), the event-log
#      grammar, the flight-dump coverage, and the SLO-vs-histogram
#      agreement must all hold;
#   2. lifecycle: a daemon we boot ourselves (with an event log and a
#      flight-recorder directory) answers a healthy request, then a
#      poisoned request as [internal] — leaving a flight dump named after
#      the offending request id — while staying up, then drains
#      gracefully on a shutdown request (socket removed, clean exit);
#   3. warmth: the daemon's p50 request latency must beat one-shot
#      `vhdlc compile` p50 — the reason the daemon exists — and the
#      daemon's live heap must hold steady across 50 further warm
#      requests (a leaky worker fails here before it pages);
#   4. event log: after the drain, the JSONL log must be well-formed —
#      every line a {"ts":...,"ev":...} object, accept request ids
#      strictly monotone, start/finish pairs balanced — and `vhdlc
#      analyze` must digest it cleanly (exit 0, no invariant
#      violations on stderr);
#   5. overhead: the full-observability daemon (event log + the
#      always-on per-request span buffer) must cost at most 5% of a
#      bare daemon's warm p50 (--span-cap 0, no events; one re-measure
#      allowed — these are whole-client round-trips, so scheduler noise
#      dwarfs the per-event write).  The two daemons' requests are
#      interleaved in pairs and the cost is the median of the pairs'
#      differences, so drift in the machine's load cancels within each
#      pair instead of landing on one daemon's p50.
#
# Run from the workspace root (dune does this via the @serve-smoke alias):
#   VHDLC=bin/vhdlc.exe VHDLFUZZ=bin/vhdlfuzz.exe sh tools/serve_smoke.sh
set -eu

VHDLC="${VHDLC:-bin/vhdlc.exe}"
VHDLFUZZ="${VHDLFUZZ:-bin/vhdlfuzz.exe}"
SHOTS="${SERVE_SMOKE_SHOTS:-120}"

TMP="$(mktemp -d "${TMPDIR:-/tmp}/serve-smoke.XXXXXX")"
DAEMON_PID=""
PLAIN_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  [ -n "$PLAIN_PID" ] && kill "$PLAIN_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
  echo "serve_smoke: FAIL: $1" >&2
  [ -f "$TMP/chaos.log" ] && tail -40 "$TMP/chaos.log" >&2
  exit 1
}

# ---- 1. chaos burst ------------------------------------------------------
"$VHDLFUZZ" --serve-chaos --shots "$SHOTS" --quiet > "$TMP/chaos.log" 2>&1 \
  || fail "chaos campaign exited non-zero"
grep -q "zero daemon deaths, all invariants hold" "$TMP/chaos.log" \
  || fail "chaos campaign did not report the zero-deaths invariant"
grep -q "invariants: all hold" "$TMP/chaos.log" \
  || fail "telemetry ledger check missing from the campaign summary"
grep -q "event log OK" "$TMP/chaos.log" \
  || fail "event-log grammar check missing from the campaign summary"
grep -q "slo window p99" "$TMP/chaos.log" \
  || fail "slo-vs-histogram check missing from the campaign summary"

# ---- 2. lifecycle (with the observability surface on) --------------------
SOCK="$TMP/serve.sock"
EVENTS="$TMP/events.jsonl"
printf 'entity smoke is end smoke;\n' > "$TMP/u.vhd"

"$VHDLC" serve --socket "$SOCK" --quiet --allow-faults --grace 0.3 \
  --events "$EVENTS" --flight-dir "$TMP/dumps" &
DAEMON_PID=$!

"$VHDLC" request --socket "$SOCK" --wait-ready "$TMP/u.vhd" > /dev/null \
  || fail "healthy request failed"

# a poisoned request is answered [internal] (exit 2) while the daemon lives
rc=0
"$VHDLC" request --socket "$SOCK" --poison entity:SMOKE "$TMP/u.vhd" \
  > /dev/null 2> "$TMP/poison.err" || rc=$?
[ "$rc" -eq 2 ] || fail "poisoned request: expected exit 2 (internal), got $rc"
kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on a poisoned request"
"$VHDLC" request --socket "$SOCK" --ping > /dev/null \
  || fail "daemon does not answer after containing a fault"

# the firewall trip left a flight dump named after the rid the client saw
poison_rid=$(sed -n 's/.*rid=\([0-9]*\).*/\1/p' "$TMP/poison.err")
[ -n "$poison_rid" ] || fail "poisoned response did not echo a request id"
ls "$TMP/dumps" | grep -q -- "-rid${poison_rid}-firewall" \
  || fail "no firewall flight dump named after rid $poison_rid (have: $(ls "$TMP/dumps" 2>/dev/null | tr '\n' ' '))"

# the SLO window answers live
"$VHDLC" request --socket "$SOCK" --slo | grep -q '^window' \
  || fail "slo query did not answer"

# ---- 3. warmth: warm p50 must beat one-shot p50 --------------------------
ms_now() { date +%s%N; }
p50_of() { sort -n | awk '{ a[NR] = $1 } END { print a[int((NR + 1) / 2)] }'; }

# one request's round trip in microseconds
rtt_on() {
  t0=$(ms_now)
  "$VHDLC" request --socket "$1" "$TMP/u.vhd" > /dev/null
  echo $((($(ms_now) - t0) / 1000))
}

warm_p50_on() {
  _sock=$1; _n=$2
  i=0
  while [ $i -lt "$_n" ]; do
    rtt_on "$_sock"
    i=$((i + 1))
  done | p50_of
}

warm_p50=$(warm_p50_on "$SOCK" 15)
oneshot_p50=$(
  i=0
  while [ $i -lt 5 ]; do
    t0=$(ms_now)
    "$VHDLC" compile --work "$TMP/work" "$TMP/u.vhd" > /dev/null
    echo $((($(ms_now) - t0) / 1000))
    i=$((i + 1))
  done | p50_of
)
[ "$warm_p50" -lt "$oneshot_p50" ] \
  || fail "warm p50 (${warm_p50}us) not below one-shot p50 (${oneshot_p50}us)"

# ---- 3b. steady heap: 50 warm requests must not grow the live heap -------
# (the daemon is warm after the p50 burst above, so major-heap growth
# here is a leak, not cache warm-up; 15% headroom absorbs GC timing)
live_words() {
  "$VHDLC" request --socket "$SOCK" --stats --json \
    | sed -n 's/.*"live_words":\([0-9][0-9]*\).*/\1/p'
}
heap_before=$(live_words)
[ -n "$heap_before" ] || fail "stats JSON carries no heap.live_words"
i=0
while [ $i -lt 50 ]; do
  "$VHDLC" request --socket "$SOCK" "$TMP/u.vhd" > /dev/null
  i=$((i + 1))
done
heap_after=$(live_words)
[ $((heap_after * 100)) -le $((heap_before * 115)) ] \
  || fail "heap not steady across 50 warm requests (live words ${heap_before} -> ${heap_after})"

# ---- 5a. overhead: full-observability daemon vs bare daemon --------------
# (measured before the drain so both daemons are equally warm; verdict
# computed below once the bare daemon has answered its burst.  The bare
# daemon runs --span-cap 0 so the comparison prices the always-on span
# buffer as well as the event log.)
PLAIN_SOCK="$TMP/plain.sock"
"$VHDLC" serve --socket "$PLAIN_SOCK" --quiet --span-cap 0 &
PLAIN_PID=$!
"$VHDLC" request --socket "$PLAIN_SOCK" --wait-ready "$TMP/u.vhd" > /dev/null \
  || fail "plain daemon did not come up"

# 20 samples per daemon, interleaved in pairs (the order alternated from
# pair to pair) so that co-tenant drift lands on both sides equally
check_overhead() {
  i=0
  while [ $i -lt 20 ]; do
    if [ $((i % 2)) -eq 0 ]; then
      e=$(rtt_on "$SOCK"); p=$(rtt_on "$PLAIN_SOCK")
    else
      p=$(rtt_on "$PLAIN_SOCK"); e=$(rtt_on "$SOCK")
    fi
    echo "$e $p"
    i=$((i + 1))
  done > "$TMP/pairs"
  events_p50=$(cut -d' ' -f1 "$TMP/pairs" | p50_of)
  plain_p50=$(cut -d' ' -f2 "$TMP/pairs" | p50_of)
  cost_p50=$(awk '{ print $1 - $2 }' "$TMP/pairs" | p50_of)
  # median (events - plain) <= 5% of plain p50
  [ $((cost_p50 * 100)) -le $((plain_p50 * 5)) ]
}
overhead_ok=1
check_overhead || check_overhead || overhead_ok=0
[ "$overhead_ok" -eq 1 ] \
  || fail "observability (events + span buffer) costs more than 5% at p50 (median paired cost ${cost_p50}us vs bare p50 ${plain_p50}us; full p50 ${events_p50}us)"

"$VHDLC" request --socket "$PLAIN_SOCK" --shutdown > /dev/null \
  || fail "plain daemon shutdown failed"
wait "$PLAIN_PID" || fail "plain daemon exited non-zero"
PLAIN_PID=""

# ---- graceful drain ------------------------------------------------------
"$VHDLC" request --socket "$SOCK" --shutdown > /dev/null \
  || fail "shutdown request failed"
wait "$DAEMON_PID" || fail "daemon exited non-zero after drain"
DAEMON_PID=""
[ ! -S "$SOCK" ] || fail "socket file left behind after drain"

# ---- 4. event log: well-formed JSONL, monotone rids, balanced pairs ------
[ -s "$EVENTS" ] || fail "event log is missing or empty"
awk '
  !/^\{"ts":[0-9]/ { malformed++ }
  /"ev":"accept"/ {
    rid = $0; sub(/.*"rid":/, "", rid); sub(/[^0-9].*/, "", rid)
    accepts++
    if (rid + 0 <= last) mono_bad++
    last = rid + 0
  }
  /"ev":"start"/ { starts++ }
  /"ev":"finish"/ { finishes++ }
  END {
    if (malformed > 0) { print "EVLOG malformed lines: " malformed; exit 1 }
    if (accepts == 0) { print "EVLOG no accept events"; exit 1 }
    if (mono_bad > 0) { print "EVLOG non-monotone accept rids: " mono_bad; exit 1 }
    if (starts == 0 || starts != finishes) {
      print "EVLOG unbalanced start/finish: " starts " vs " finishes; exit 1
    }
    print "event log: " NR " lines, " accepts " accepts, " starts " start/finish pairs"
  }' "$EVENTS" || fail "event log validation failed"

# ---- 4b. analyze: the offline analytics digest the smoke log cleanly -----
"$VHDLC" analyze "$EVENTS" > "$TMP/analyze.out" 2> "$TMP/analyze.err" \
  || fail "vhdlc analyze exited non-zero on the smoke event log ($(cat "$TMP/analyze.err"))"
[ ! -s "$TMP/analyze.err" ] \
  || fail "vhdlc analyze reported warnings/violations on a clean log: $(cat "$TMP/analyze.err")"
grep -q "^event log:" "$TMP/analyze.out" \
  || fail "vhdlc analyze output missing the event-log summary line"
grep -q "finishes" "$TMP/analyze.out" \
  || fail "vhdlc analyze output missing the finish count"

echo "serve_smoke: OK ($SHOTS chaos shots, zero deaths; warm p50 ${warm_p50}us vs one-shot ${oneshot_p50}us; events p50 ${events_p50}us vs bare p50 ${plain_p50}us, paired cost ${cost_p50}us; heap ${heap_before}w -> ${heap_after}w over 50 warm requests)"
