GO ?= go

.PHONY: all build vet test race audit identity reconfig tail cache fuzz scale bench-build bench-smoke experiments full profile clean

all: vet build test

build:
	$(GO) build ./...

# As in CI's vet step: go vet, the nested bench module too, and every
# file gofmt-clean.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full self-audit, as in CI's audit job: every experiment (quick
# windows) with runtime verification on (SKB ledger, conservation
# invariants, watchdog), fenced by wall-clock and event budgets, serial
# and on four LPs, each output diffed against the serial audit-off run.
# Any invariant breach aborts nonzero and leaves a falcon-audit-*.dump
# for -replay.
audit:
	$(GO) run ./cmd/falconsim -all -quick -audit \
		-deadline 20m -max-events 2000000000 > audit-all.out
	$(GO) run ./cmd/falconsim -all -quick \
		-deadline 20m -max-events 2000000000 > plain-all.out
	diff audit-all.out plain-all.out
	$(GO) run ./cmd/falconsim -all -quick -audit -shards 4 \
		-deadline 20m -max-events 2000000000 > audit-s4-all.out
	diff audit-s4-all.out plain-all.out

# Byte-identity against another revision: builds falconsim, pcapdump,
# the examples and the benchmark at BASE and from the working tree, runs
# every golden setting (-all -quick at -shards 1/4/auto, plain, -audit
# and -cache), abl-crash under each pinned partition schedule (through
# -reconfig, so against a BASE that read them through -crash those three
# runs differ and are compared by hand), full-window abl-tail
# and -all, -fuzz -seeds 50, the examples, pcapdump and each benchmark
# workload's simulated results at seed 1 with both, and prints one line
# per run. Fails on any difference not named in ALLOW (run names).
#   make identity BASE=HEAD~1 [ALLOW="quick-s1 quick-s4"]
identity:
	ALLOW="$(ALLOW)" bash scripts/identity.sh $(BASE)

# Hot reconfiguration under load: generation swaps (kernel roll,
# graceful drain + re-add, steering flips) with convergence SLOs and
# full runtime verification, serial and sharded — the experiment's
# verdict column FAILs on any unaccounted packet, steady-state ratio
# < 0.98x, blackout > 2ms, or an incomplete drain quiesce.
reconfig:
	$(GO) run ./cmd/falconsim -exp abl-reconfig -audit -deadline 20m \
		-max-events 2000000000
	$(GO) run ./cmd/falconsim -exp abl-reconfig -audit -shards 4 \
		-deadline 20m -max-events 2000000000

# Tail latency under open-loop overload: heavy-tailed (Pareto/MMPP)
# flow populations swept from 0.5x to 1.2x of the vanilla overlay's
# capacity, vanilla vs Falcon, with p50/p99/p99.9 curves and SLO
# verdicts (p99 budget when underloaded, goodput knee past 0.9x).
# Serial and sharded runs print byte-identical tables.
tail:
	$(GO) run ./cmd/falconsim -exp abl-tail -deadline 20m \
		-max-events 2000000000
	$(GO) run ./cmd/falconsim -exp abl-tail -shards 4 -deadline 20m \
		-max-events 2000000000

# Full-path flow caching ablation: the ONCache-style RX decap fast path
# vs Falcon vs both, on the fig10-style 16B UDP stress and the 8-host
# mesh ring, with hit/miss/stale counters. Serial and sharded runs
# print byte-identical tables.
cache:
	$(GO) run ./cmd/falconsim -exp abl-cache -deadline 20m \
		-max-events 2000000000
	$(GO) run ./cmd/falconsim -exp abl-cache -shards 4 -deadline 20m \
		-max-events 2000000000

# Scenario fuzzing: 50 random-but-valid scenarios through the
# metamorphic oracle battery (determinism, conservation, equivalence,
# monotonicity, fault sanity, reconfig conservation). Violations are
# shrunk and written as falcon-fuzz-*.json reproducers (replay:
# falconsim -scenario <file>).
fuzz:
	$(GO) run ./cmd/falconsim -fuzz -seeds 50 -fuzz-workers 4 -deadline 10m

# Sharding sweep: the quick-window mesh ring at 8, 16, 32 and 64 hosts
# on the serial engine, 4 LPs and one LP per host, with slot-list passes
# per set and window synchronization metrics (windows per op, width,
# cross-shard traffic, busy shards) per configuration.
scale:
	$(GO) test -run NONE -bench MeshShards ./internal/experiments

# What building a bed costs: ns/op, B/op and allocs/op of one build of
# the mesh8 ring, of the two-host Falcon testbed and of the two-host
# RX-cache bed with 64 started senders (rxcache-64flows).
bench-build:
	$(GO) test -run NONE -bench '^BenchmarkBuild$$' -benchmem ./internal/experiments

# One full pass of every experiment benchmark (quick windows).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Regenerate every paper table with full measurement windows.
experiments:
	$(GO) run ./cmd/falconsim -all

# The full-window record, as in CI's full-record job (not tier-1): every
# experiment with full windows, its stdout diffed against the committed
# results_full.txt (timings go to stderr). After an intended output
# change, regenerate the file with `go run ./cmd/falconsim -all >
# results_full.txt`.
full:
	$(GO) run ./cmd/falconsim -all > full-all.out
	diff results_full.txt full-all.out

# CPU + heap profiles of the hot path (full fig10 windows). Inspect with
#   go tool pprof falcon-cpu.out
#   go tool pprof -sample_index=alloc_objects falcon-mem.out
PROFILE_EXP ?= fig10
profile:
	$(GO) run ./cmd/falconsim -exp $(PROFILE_EXP) \
		-cpuprofile falcon-cpu.out -memprofile falcon-mem.out

clean:
	$(GO) clean ./...
