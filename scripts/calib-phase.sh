#!/usr/bin/env bash
# Prints, for each benchmark binary given, the address of the calibration
# kernel main.(*calibrator).round and that address mod 64: its code phase.
# The bench divides every timed number by the kernel's speed, and the speed
# depends on the phase (ROADMAP 2(d)), so two binaries compared pair by pair
# should read the same phase. Reads the symbol table with `go tool nm -n`;
# builds and runs nothing.
#
#   scripts/calib-phase.sh parent/.bench_build/buffalo-bench .bench_build/buffalo-bench
#
# Exits 1 when a binary has no such symbol, 2 when given no binary.
set -euo pipefail
if [ "$#" -eq 0 ]; then
	echo "usage: $0 BENCH_BINARY..." >&2
	exit 2
fi
status=0
for bin in "$@"; do
	addr="$(go tool nm -n "$bin" | awk '$3 == "main.(*calibrator).round" && !found { print $1; found = 1 }')" || addr=""
	if [ -z "$addr" ]; then
		echo "$bin: no main.(*calibrator).round symbol" >&2
		status=1
		continue
	fi
	printf '%s\t0x%s\tphase %d\n' "$bin" "$addr" $((16#$addr % 64))
done
exit "$status"
