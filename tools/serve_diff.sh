#!/bin/sh
# Differential serving: a daemon's answers must not depend on the order
# of its requests, and must match one-shot compiles.
#
#   tools/serve_diff.sh VHDLC [SEEDS] [SIZES]
#
# SEEDS is a range FIRST-LAST (default 1-200); SIZES is a list of design
# sizes, separated by spaces or commas (default "2 4 6").  Each design is
# `vhdlfuzz --gen --seed N --size S` (VHDLFUZZ, default this tree's
# _build/default/bin/vhdlfuzz.exe, built when missing).  Every design is
# compiled one-shot into a fresh work directory, then sent as a compile
# request to one `vhdlc serve` daemon, in two shuffled orders (seeded, so
# a run repeats).  Per design, the two responses must carry the same
# status and body, and the request's exit code must equal the one-shot
# compile's.  One line per disagreement, then a summary; exit 1 on any
# disagreement or when no design was compared, 2 on a usage error (a
# binary that is not executable, a malformed SEEDS or SIZES).
set -eu

usage() {
  [ $# -eq 0 ] || echo "serve_diff: $*" >&2
  echo "usage: $0 VHDLC [SEEDS] [SIZES]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
abs() { case $1 in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
V=$(abs "$1")
SEEDS=${2:-1-200}
SIZES=$(echo "${3:-2 4 6}" | tr ',' ' ')
[ -f "$V" ] && [ -x "$V" ] || usage "$V is not an executable file"
FIRST=${SEEDS%%-*}
LAST=${SEEDS#*-}
case $SEEDS in
  [0-9]*-[0-9]*) ;;
  *) usage "SEEDS must be FIRST-LAST, not '$SEEDS'" ;;
esac
case $FIRST$LAST in
  *[!0-9]*) usage "SEEDS must be FIRST-LAST, not '$SEEDS'" ;;
esac
[ "$FIRST" -le "$LAST" ] || usage "SEEDS $SEEDS is an empty range"
[ -n "$(echo $SIZES)" ] || usage "SIZES is empty"
for size in $SIZES; do
  case $size in
    *[!0-9]* | 0*) usage "SIZES must be positive integers, not '$size'" ;;
  esac
done

ROOT=$(cd "$(dirname "$0")/.." && pwd)
FUZZ=${VHDLFUZZ:-$ROOT/_build/default/bin/vhdlfuzz.exe}
if [ ! -x "$FUZZ" ]; then (cd "$ROOT" && dune build bin/vhdlfuzz.exe); fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/serve_diff.XXXXXX")
DAEMON=""
cleanup() {
  [ -z "$DAEMON" ] || kill "$DAEMON" 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# one directory per design: design.vhd, then the one-shot exit code
for size in $SIZES; do
  seed=$FIRST
  while [ "$seed" -le "$LAST" ]; do
    d="$WORK/$seed-$size"
    mkdir -p "$d"
    "$FUZZ" --gen --seed "$seed" --size "$size" > "$d/design.vhd"
    code=0
    (cd "$d" && "$V" compile --work lib design.vhd > /dev/null 2>&1) || code=$?
    echo "$code" > "$d/oneshot"
    rm -rf "$d/lib"
    echo "$seed-$size" >> "$WORK/designs"
    seed=$((seed + 1))
  done
done

SOCK="$WORK/serve.sock"
"$V" serve --socket "$SOCK" --quiet --flight-dir "$WORK" &
DAEMON=$!
"$V" request --socket "$SOCK" --wait-ready --ping > /dev/null \
  || { echo "serve_diff: the daemon did not start" >&2; exit 1; }

# send every design in the order ORDER_SEED shuffles them to, keeping each
# response's body and exit code under the suffix TAG
send_all() {
  awk -v s="$1" 'BEGIN { srand(s) } { print rand() "\t" $0 }' "$WORK/designs" \
    | sort -n | cut -f 2 | while read -r id; do
      code=0
      "$V" request --socket "$SOCK" "$WORK/$id/design.vhd" > "$WORK/$id/body.$2" \
        2> /dev/null || code=$?
      echo "$code" > "$WORK/$id/code.$2"
    done
}
send_all 1 a
send_all 2 b
kill -TERM "$DAEMON"
wait "$DAEMON" || true
DAEMON=""

designs=0
differ=0
while read -r id; do
  d="$WORK/$id"
  what=""
  cmp -s "$d/code.a" "$d/code.b" || what="$what status($(cat "$d/code.a") vs $(cat "$d/code.b"))"
  cmp -s "$d/body.a" "$d/body.b" || what="$what body"
  cmp -s "$d/code.a" "$d/oneshot" || what="$what one-shot($(cat "$d/oneshot") vs $(cat "$d/code.a"))"
  designs=$((designs + 1))
  if [ -n "$what" ]; then
    differ=$((differ + 1))
    echo "serve_diff: seed ${id%-*} size ${id#*-} differs:$what"
  fi
done < "$WORK/designs"

echo "serve_diff: $designs designs, $differ differ"
[ "$designs" -gt 0 ] || { echo "serve_diff: no design was compared" >&2; exit 1; }
[ "$differ" -eq 0 ]
