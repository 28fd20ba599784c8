#!/usr/bin/env bash
# Metrics and their documentation must agree, in both directions:
#  - every metric registered in src/ is documented: extract the
#    instrument names from counter("caldb...")/gauge(...)/histogram(...)
#    registration sites and require each to appear, backtick-wrapped, in
#    docs/OBSERVABILITY.md (the "Instrument index" section);
#  - every backticked `caldb.*` name in docs/OBSERVABILITY.md is
#    registered in src/, so a deleted instrument cannot outlive its code
#    in the docs.  A family wildcard (`caldb.wal.*`) must match at least
#    one registered name.
#
#   tools/lint_metrics.sh
#
# Registration names are string literals by convention (the registry
# also accepts computed names, but src/ never uses them — this lint is
# what keeps it that way, since a computed name would escape the doc
# check silently).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
doc="$repo_root/docs/OBSERVABILITY.md"

names="$(grep -rhoE '(counter|gauge|histogram)\("caldb\.[A-Za-z0-9_.]+"' \
              "$repo_root/src" |
         sed -E 's/^[a-z]+\("//; s/"$//' | sort -u)"

missing=0
while IFS= read -r name; do
  if ! grep -qF "\`$name\`" "$doc"; then
    echo "undocumented metric: $name (add to docs/OBSERVABILITY.md)" >&2
    missing=1
  fi
done <<< "$names"

documented="$(grep -oE '`caldb\.[A-Za-z0-9_.]+(\*)?`' "$doc" |
              tr -d '`' | sort -u)"

stale=0
while IFS= read -r name; do
  if [[ "$name" == *'*' ]]; then
    grep -qF "${name%\*}" <<< "$names" && continue
  else
    grep -qxF "$name" <<< "$names" && continue
  fi
  echo "documented metric not registered in src/: $name" \
       "(remove it from docs/OBSERVABILITY.md)" >&2
  stale=1
done <<< "$documented"

if [[ $missing -ne 0 || $stale -ne 0 ]]; then
  exit 1
fi
echo "lint_metrics: $(wc -l <<< "$names") instruments, all documented;" \
     "$(wc -l <<< "$documented") documented names, all registered"
