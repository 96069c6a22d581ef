#!/bin/sh
# Differential simulation: the same generated designs through two vhdlc
# binaries, compared byte for byte.
#
#   tools/sim_diff.sh PARENT_VHDLC CHANGE_VHDLC [SEEDS] [SIZES]
#
# SEEDS is a range FIRST-LAST (default 1-200); SIZES is a list of design
# sizes, separated by spaces or commas (default "2 4 6").  Each design is
# `vhdlfuzz --gen --seed N --size S` (VHDLFUZZ, default this tree's
# _build/default/bin/vhdlfuzz.exe, built when missing).  Both binaries
# compile it into a fresh library and simulate it at the top entity and
# horizon its header names, writing a VCD; the VCD, the messages (stdout
# and stderr) and the exit code must agree.  One line per disagreement,
# then a summary; exit 1 on any disagreement or when no design ran, 2 on
# a usage error (a binary that is not executable, a malformed SEEDS or
# SIZES).
set -eu

usage() {
  [ $# -eq 0 ] || echo "sim_diff: $*" >&2
  echo "usage: $0 PARENT_VHDLC CHANGE_VHDLC [SEEDS] [SIZES]" >&2
  exit 2
}
[ $# -ge 2 ] || usage
abs() { case $1 in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
A=$(abs "$1")
B=$(abs "$2")
SEEDS=${3:-1-200}
SIZES=$(echo "${4:-2 4 6}" | tr ',' ' ')
for bin in "$A" "$B"; do
  [ -f "$bin" ] && [ -x "$bin" ] || usage "$bin is not an executable file"
done
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

WORK=$(mktemp -d "${TMPDIR:-/tmp}/sim_diff.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

designs=0
differ=0
for size in $SIZES; do
  seed=$FIRST
  while [ "$seed" -le "$LAST" ]; do
    d="$WORK/$seed-$size"
    mkdir -p "$d/a" "$d/b"
    "$FUZZ" --gen --seed "$seed" --size "$size" > "$d/a/design.vhd"
    cp "$d/a/design.vhd" "$d/b/design.vhd"
    # header: -- seed N shape SHAPE top TOP max-ns NS
    header=$(head -n 1 "$d/a/design.vhd")
    top=$(echo "$header" | sed -n 's/.* top \([^ ]*\).*/\1/p')
    ns=$(echo "$header" | sed -n 's/.* max-ns \([0-9]*\).*/\1/p')
    for side in a b; do
      if [ "$side" = a ]; then vhdlc=$A; else vhdlc=$B; fi
      code=0
      (cd "$d/$side" && "$vhdlc" simulate --work lib --top "$top" --ns "$ns" \
        --vcd out.vcd design.vhd > out.txt 2>&1) || code=$?
      echo "$code" > "$d/$side/code"
    done
    what=""
    cmp -s "$d/a/code" "$d/b/code" || what="$what exit($(cat "$d/a/code") vs $(cat "$d/b/code"))"
    cmp -s "$d/a/out.txt" "$d/b/out.txt" || what="$what messages"
    if [ -f "$d/a/out.vcd" ] || [ -f "$d/b/out.vcd" ]; then
      cmp -s "$d/a/out.vcd" "$d/b/out.vcd" 2> /dev/null || what="$what vcd"
    fi
    designs=$((designs + 1))
    if [ -n "$what" ]; then
      differ=$((differ + 1))
      echo "sim_diff: seed $seed size $size ($top, $ns ns) differs:$what"
    fi
    rm -rf "$d"
    seed=$((seed + 1))
  done
done

echo "sim_diff: $designs designs, $differ differ"
[ "$designs" -gt 0 ] || { echo "sim_diff: no design ran" >&2; exit 1; }
[ "$differ" -eq 0 ]
