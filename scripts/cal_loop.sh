#!/bin/sh
# Where each obiwan-perf binary's calibration loop sits in its code.
#
#   scripts/cal_loop.sh target/release/perf
#   scripts/cal_loop.sh parent/perf change/perf
#
# Every obiwan-perf time is divided by the host_speed_factor that the loop
# in obiwan_perf::cal::Calibrator::tick measures. A loop that crosses a
# 64-byte line runs slower, so that binary reads faster on every scaled
# metric with nothing else changed. A speed claim therefore quotes this
# line for both binaries it compares (ROADMAP.md, "Speed claims"); give
# both to one call.
#
# The loop is the one the first `jne` after the symbol jumps back into:
# it starts at the jump's target and ends after the jump. Prints one line
# per binary: its start address, the start mod 64, its length, and
# whether it crosses a line, prefixed with the binary's path when there
# are several. Exits 1 if any binary has no such loop.
set -eu
[ $# -gt 0 ] || { echo "usage: scripts/cal_loop.sh <perf-binary>..." >&2; exit 2; }

several=$(( $# > 1 ))
status=0
for bin in "$@"; do
    addr=$(nm "$bin" | awk '/Calibrator4tick/ { print $1; exit }')
    if [ -z "$addr" ]; then
        echo "cal_loop: no Calibrator::tick symbol in $bin" >&2
        status=1
        continue
    fi

    # "<jne address> <jne target> <address after the jne>", in hex.
    if ! loop=$(objdump -d --no-show-raw-insn "$bin" \
            --start-address="0x$addr" --stop-address="$(printf '0x%x' $((0x$addr + 0x100)))" |
        awk '$1 ~ /^[0-9a-f]+:$/ {
                 at = substr($1, 1, length($1) - 1)
                 if (jne != "") { print jne, target, at; found = 1; exit }
                 if ($2 == "jne") { jne = at; target = $3 }
             }
             END { if (!found) exit 1 }'); then
        echo "cal_loop: no jne within 256 bytes of Calibrator::tick in $bin" >&2
        status=1
        continue
    fi

    set -- $loop
    start=$((0x$2))
    end=$((0x$3))
    if [ $((start / 64)) -eq $(((end - 1) / 64)) ]; then crosses=no; else crosses=yes; fi
    if [ "$several" -eq 1 ]; then prefix="$bin: "; else prefix=; fi
    printf '%scal_loop: start 0x%x, %d mod 64, %d bytes, crosses a 64-byte line: %s\n' \
        "$prefix" "$start" $((start % 64)) $((end - start)) "$crosses"
done
exit $status
