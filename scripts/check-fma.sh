#!/usr/bin/env bash
# check-fma.sh [GOARCH...]: fail if the compiler fused a floating-point
# multiply with an add or subtract in any falcon/ function.
#
# Go's spec lets a compiler compute x*y + z with one rounding instead of
# two, and it does so on every target that has a fused multiply-add
# instruction. A fused result can differ from amd64's in the last bit,
# and the sim.Time truncation after it can then land 1 ns away, so the
# same seed would print different tables on different machines. Writing
# the product as float64(x*y) forbids the fusion.
#
# Builds every package of the module for each target with -S and scans
# the assembly for fused forms (FMADD, FMSUB, FNMADD, FNMSUB with any
# precision suffix). Prints each fused site as "GOARCH function file:line"
# and exits 1 if there is one. The default targets are the fusing ones
# Go supports: arm64, ppc64le, riscv64, s390x and loong64.
#
#   bash scripts/check-fma.sh            # every default target
#   bash scripts/check-fma.sh arm64      # one target
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

targets=("$@")
if [ ${#targets[@]} -eq 0 ]; then
	targets=(arm64 ppc64le riscv64 s390x loong64)
fi

found=0
for arch in "${targets[@]}"; do
	# The build cache replays a cached compile's -S output, so a warm
	# cache still prints every function.
	asm=$(GOARCH=$arch go build -o /dev/null -gcflags='falcon/...=-S' ./... 2>&1)
	if ! grep -q ' STEXT ' <<<"$asm"; then
		echo "check-fma: $arch: the build printed no assembly" >&2
		exit 2
	fi
	sites=$(awk -v arch="$arch" -v root="$root/" '
		/^[^ \t].* STEXT / { fn = $1 }
		/\tF(N)?M(ADD|SUB)[DS]?\t/ {
			loc = $3
			gsub(/[()]/, "", loc)
			sub(root, "", loc)
			print arch, fn, loc
		}' <<<"$asm" | sort -u)
	if [ -n "$sites" ]; then
		echo "$sites"
		found=1
	else
		echo "check-fma: $arch: no fused multiply-add in falcon/"
	fi
done
exit $found
