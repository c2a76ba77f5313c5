#!/bin/sh
# The line counts every PR quotes (ROADMAP.md, "Standing practice").
#
#   product: lines of .rs under crates/, outside crates/perf and test code
#            (tests/ directories, tests.rs, proptests.rs), each file cut at
#            its first line that *is* a #[cfg(test)] or #[cfg(all(test, …))]
#            attribute (a doc comment that mentions one does not end the
#            file; #[cfg(any(test, …))] is not test-only code)
#   lint:    the crates/lint share of product
#   total:   lines of every .rs file in the repository
#
# Product code after a file's cut would go uncounted, so the script fails,
# naming it, when a top-level item there is not itself behind such an
# attribute: test modules go at the end of their file.
#
# Files are the ones git tracks or would track, so target/ never counts.
# With a directory argument it counts that checkout instead of this one.
set -eu
cd "${1:-$(dirname "$0")/..}"

files() { git ls-files -co --exclude-standard -- "$@"; }

product_files() {
    files "$1" | grep -v -e '^crates/perf/' -e '/tests/' -e '/tests\.rs$' -e '/proptests\.rs$'
}

product() {
    product_files "$1" |
        while read -r f; do [ -f "$f" ] && awk '/^[[:space:]]*#\[cfg\((all\()?test[,)]/ { exit } { print }' "$f"; done | wc -l
}

# Top-level items after the cut (rustfmt starts them at column 0) that no
# test attribute gates.
late=$(product_files 'crates/*.rs' | while read -r f; do [ ! -f "$f" ] || awk '
    /^[[:space:]]*#\[cfg\((all\()?test[,)]/ { cut = 1; if ($0 ~ /^#/) gated = 1; next }
    !cut { next }
    /^(pub(\([^)]*\))? +)?((unsafe|async|const|extern) +)*(fn|struct|enum|union|impl|mod|use|const|static|trait|type)[^A-Za-z0-9_]/ ||
    /^[A-Za-z_][A-Za-z0-9_:]*! *[({[]/ {
        if (!gated) print FILENAME ":" FNR ": " $0
        gated = 0
    }' "$f"; done)
if [ -n "$late" ]; then
    printf '%s\n' "$late" >&2
    echo "loc.sh: product code after a #[cfg(test)] cut goes uncounted; move the test module to the end of its file" >&2
    exit 1
fi

total=$(files '*.rs' | while read -r f; do [ -f "$f" ] && cat "$f"; done | wc -l)

printf 'product (crates/, no perf, no tests): %s lines\n' "$(product 'crates/*.rs')"
printf '  of which crates/lint:               %s lines\n' "$(product 'crates/lint/*.rs')"
printf 'total   (every .rs in the repository): %s lines\n' "$total"
