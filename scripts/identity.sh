#!/usr/bin/env bash
# identity.sh BASE: check that the working tree prints what git revision
# BASE prints.
#
# Builds falconsim, pcapdump, both examples and, when BASE has bench/,
# the benchmark twice: once from BASE, exported with `git archive` into a
# temporary directory, and once from the working tree. Runs the same set
# of runs with each build and compares their stdout byte for byte.
# falconsim writes its wall-clock timings to stderr, so its stdout needs
# no stripping. The runs:
#   - `-all -quick` at -shards 1, 4 and auto, each plain, -audit, -cache;
#   - abl-crash with each pinned partition schedule (quick windows,
#     -reconfig; a BASE that still took them through -crash differs on
#     these three runs, so compare those by hand);
#   - full-window abl-tail and full-window -all;
#   - `-fuzz -seeds 50`;
#   - both examples, and pcapdump (its stdout plus the capture's hash);
#   - each benchmark workload at seed 1 (`falconbench --workload W --seed 1
#     --seconds 0 --trace 0`), kept to its `checks:` line and the
#     events_per_pkt and model_* values of its JSON line: the rest is
#     wall time.
#
# Prints one line per run: "identical", or where the outputs first
# differ (the title of that table, or the line itself); for a benchmark
# run, every value that differs, as "name base → new". Exits 1 if a run
# differs and ALLOW (space-separated run names) does not list it, 2 if a
# build fails. A run's exit status is compared like its stdout.
#
#   make identity BASE=HEAD~1
#   make identity BASE=main ALLOW="quick-s1 quick-s4 quick-sauto"
#
# Two runs go at once: each full-window run holds a whole experiment's
# beds in memory.
set -euo pipefail

base=${1:?usage: identity.sh <rev>}
allow=" ${ALLOW:-} "
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src/base" "$tmp/bin/base" "$tmp/bin/new"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src/base"
bench=false
[ -d "$tmp/src/base/bench" ] && bench=true
build() { # build <source dir> <binary dir>
	(cd "$1" && go build -o "$2/" ./cmd/falconsim ./cmd/pcapdump ./examples/quickstart ./examples/livestream) &&
		{ ! $bench || (cd "$1/bench" && go build -o "$2/falconbench" .); }
}
if ! build "$tmp/src/base" "$tmp/bin/base" || ! build "$root" "$tmp/bin/new"; then
	echo "identity: build failed" >&2
	exit 2
fi

# name|command: the command's first word is a binary of the build, and
# @ stands for that build's source tree. Longest runs first.
runs=(
	"all-full|falconsim -all"
	"fuzz|falconsim -fuzz -seeds 50"
	"tail-full|falconsim -exp abl-tail"
)
for shards in 1 4 auto; do
	runs+=("quick-s$shards|falconsim -all -quick -shards $shards"
		"quick-s$shards-audit|falconsim -all -quick -shards $shards -audit"
		"quick-s$shards-cache|falconsim -all -quick -shards $shards -cache")
done
for sched in abl-crash-partition abl-crash-partition-only abl-crash-partition-rejoin; do
	runs+=("$sched|falconsim -quick -exp abl-crash -reconfig @/internal/experiments/testdata/$sched.json")
done
runs+=("quickstart|quickstart" "livestream|livestream" "pcapdump|pcapdump -o overlay.pcap")
if $bench; then
	for w in udp-flood-falcon udp-rxcache-fixed udp-openloop-churn tcp-bulk-falcon mesh16-auto; do
		runs+=("bench-$w|falconbench --workload $w --seed 1 --seconds 0 --trace 0")
	done
fi

# run <side> <name> <command>: stdout to out, exit status to status.
run() {
	local side=$1 name=$2 src=$tmp/src/base
	[ "$side" = new ] && src=$root
	local dir=$tmp/run/$side/$name
	mkdir -p "$dir"
	local -a argv
	read -r -a argv <<<"${3//@/$src}"
	argv[0]=$tmp/bin/$side/${argv[0]}
	local status=0
	(cd "$dir" && "${argv[@]}" >out 2>err) || status=$?
	if [ -f "$dir/overlay.pcap" ]; then
		(cd "$dir" && sha256sum overlay.pcap >>out)
	fi
	if [[ $name == bench-* ]]; then
		mv "$dir/out" "$dir/full"
		{
			grep '^checks:' "$dir/full"
			grep '^{' "$dir/full" | grep -oE '"(events_per_pkt|model_[a-z0-9_]+)":\{"value":[^,}]*'
		} >"$dir/out" || true
	fi
	echo "$status" >"$dir/status"
}

active=0
for r in "${runs[@]}"; do
	for side in base new; do
		run "$side" "${r%%|*}" "${r#*|}" &
		active=$((active + 1))
		if [ "$active" -ge 2 ]; then
			wait -n
			active=$((active - 1))
		fi
	done
done
wait

# firstdiff <base out> <new out>: where the outputs first differ.
firstdiff() {
	local line
	line=$(diff "$1" "$2" | grep -m1 -o '^[0-9,]*[acd][0-9]*' | sed 's/.*[acd]//' || true)
	awk -v n="${line:-1}" '
		/^== .* ==$/ { title = substr($0, 4, length($0) - 6) }
		NR == n { text = $0 }
		NR >= n { exit }
		END { print (title != "" ? "first differs in table \"" title "\"" : "first differs at line " n ": " text) }
	' "$2"
}

# metricdiff <base out> <new out>: each benchmark value (the checks line
# or a metric) that differs, as "name base → new".
metricdiff() {
	awk '
		{ sub(/^"/, ""); sub(/":\{"value":/, " "); k = $1; v = substr($0, length(k) + 2) }
		NR == FNR { base[k] = v; next }
		{ seen[k] = 1 }
		!(k in base) || base[k] != v { out = out sep k " " (k in base ? base[k] : "-") " → " v; sep = ", " }
		END {
			for (k in base) if (!(k in seen)) { out = out sep k " " base[k] " → -"; sep = ", " }
			print out
		}
	' "$1" "$2"
}

failed=0
for r in "${runs[@]}"; do
	name=${r%%|*}
	b=$tmp/run/base/$name n=$tmp/run/new/$name
	if [ "$(cat "$b/status")" != "$(cat "$n/status")" ]; then
		verdict="exit status $(cat "$b/status") at BASE, $(cat "$n/status") now"
	elif cmp -s "$b/out" "$n/out"; then
		printf '%-28s identical\n' "$name"
		continue
	elif [[ $name == bench-* ]]; then
		verdict=$(metricdiff "$b/out" "$n/out")
	else
		verdict=$(firstdiff "$b/out" "$n/out")
	fi
	if [[ $allow == *" $name "* ]]; then
		printf '%-28s differs (allowed): %s\n' "$name" "$verdict"
	else
		printf '%-28s DIFFERS: %s\n' "$name" "$verdict"
		failed=1
	fi
done
exit "$failed"
