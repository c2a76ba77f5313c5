#!/usr/bin/env bash
# Explains the lock-order edges that a re-emitted LOCK_GRAPH.json gained
# against the committed copy: for each added `class -> class` edge, prints
# every `LINT_DEBUG_EDGES=1` line of obiwan-lint that created it (the two
# sites, and the fn whose walk added the edge).
#
#   cargo run -p obiwan-lint -- --emit-lock-graph LOCK_GRAPH.json
#   scripts/lock_graph_triage.sh
#
# Run from anywhere inside the repository. Exits 0 after printing; the
# caller decides whether a changed graph fails.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

added=$(git diff -U0 -- LOCK_GRAPH.json | sed -n 's/^+ *"\(.* -> .*\)",\{0,1\}$/\1/p')
if [ -z "$added" ]; then
    echo "lock_graph_triage: LOCK_GRAPH.json gained no edge"
    exit 0
fi

log=$(mktemp)
trap 'rm -f "$log"' EXIT
LINT_DEBUG_EDGES=1 cargo run -q -p obiwan-lint >/dev/null 2>"$log" || true
while IFS= read -r edge; do
    echo "added edge: $edge"
    grep -F "edge [$edge]" "$log" | sort -u | sed 's/^/  /' \
        || echo "  (no debug line names it)"
done <<<"$added"
