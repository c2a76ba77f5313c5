#!/bin/sh
# The two line counts every PR quotes (ROADMAP.md, "Standing practice").
#
#   product: lines of .rs under crates/, outside crates/perf and test code
#            (tests/ directories, tests.rs, proptests.rs), each file cut at
#            its first #[cfg(test)]
#   total:   lines of every .rs file in the repository
#
# Files are the ones git tracks or would track, so target/ never counts.
# With a directory argument it counts that checkout instead of this one.
set -eu
cd "${1:-$(dirname "$0")/..}"

files() { git ls-files -co --exclude-standard -- "$@"; }

product=$(files 'crates/*.rs' |
    grep -v -e '^crates/perf/' -e '/tests/' -e '/tests\.rs$' -e '/proptests\.rs$' |
    while read -r f; do [ -f "$f" ] && awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f"; done | wc -l)
total=$(files '*.rs' | while read -r f; do [ -f "$f" ] && cat "$f"; done | wc -l)

printf 'product (crates/, no perf, no tests): %s lines\n' "$product"
printf 'total   (every .rs in the repository): %s lines\n' "$total"
