#!/bin/sh
# Lint for exception escapes in the user-facing compiler layers.
#
# Any failwith / invalid_arg / assert false in lib/front, lib/sem, or
# lib/elab is a potential crash on user input: it bypasses Diag and can
# only be contained (not explained) by the Supervisor firewall.  So is a
# partial conversion, int_of_string or float_of_string, which raises
# Failure on text it cannot read; the _opt forms return an option.  Sites
# proven unreachable from user input live in tools/escape_allowlist.txt
# with a justification; anything new fails this lint.
#
# It also rejects any use of the Obj module anywhere under lib/, with no
# allowlist: the engine's plain representations (parent links without an
# option, rule functions by arity) must stay type-checked, not unboxed
# by casts.
#
# Usage: tools/lint_escapes.sh [REPO_ROOT]

set -eu
root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
allow="$root/tools/escape_allowlist.txt"

hits=$(grep -rn -E 'failwith|invalid_arg|assert false|(int|float)_of_string([^_]|$)' \
  "$root/lib/front" "$root/lib/sem" "$root/lib/elab" \
  --include='*.ml' 2>/dev/null \
  | sed "s#^$root/##" || true)

obj=$(grep -rn -E '(^|[^A-Za-z0-9_])Obj\.|module +[A-Z][A-Za-z0-9_]* *= *(Stdlib\.)?Obj *$' \
  "$root/lib" --include='*.ml' --include='*.mli' 2>/dev/null \
  | sed "s#^$root/##" || true)
if [ -n "$obj" ]; then
  echo "lint_escapes: the Obj module is not allowed under lib/:" >&2
  printf '%s\n' "$obj" >&2
  exit 1
fi

bad=""
while IFS= read -r line; do
  [ -n "$line" ] || continue
  ok=0
  while IFS= read -r pat; do
    case $pat in ''|'#'*) continue ;; esac
    if printf '%s\n' "$line" | grep -qE "$pat"; then
      ok=1
      break
    fi
  done < "$allow"
  if [ "$ok" -eq 0 ]; then
    bad="$bad$line
"
  fi
done <<EOF
$hits
EOF

if [ -n "$bad" ]; then
  echo "lint_escapes: unallowlisted exception escapes in user-facing layers:" >&2
  printf '%s' "$bad" >&2
  echo "Convert these to Diag errors, or justify them in tools/escape_allowlist.txt." >&2
  exit 1
fi
echo "lint_escapes: ok"
