// Package experiments regenerates every table and figure in the paper's
// evaluation (Section 2.2 motivation and Section 6). Each experiment is
// a named harness that builds the right testbed, drives the paper's
// workload, and emits stats.Tables shaped like the figure's rows/series.
// EXPERIMENTS.md records paper-vs-measured for each id.
package experiments

import (
	"sort"

	"falcon/internal/audit"
	"falcon/internal/reconfig"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// Options tunes a run. Every testbed-based experiment builds its beds
// through newBed and the mesh ring through buildMesh, so each field
// below holds for every experiment unless its comment says otherwise.
type Options struct {
	// Kernel selects the cost profile ("linux-4.19" default).
	Kernel string
	// Quick shortens measurement windows (used by tests; benchmarks and
	// the CLI use full windows).
	Quick bool
	// Seed for determinism (0 → 1).
	Seed uint64
	// Audit enables the runtime verification subsystem (internal/audit)
	// on every testbed and mesh ring; an invariant breach aborts the run
	// with an *audit.Abort panic. Each bed ends with the end-of-run
	// leak check once the experiment has moved on from it.
	Audit bool
	// MaxEvents, when positive, aborts the run with *sim.BudgetExceeded
	// after executing that many engine steps, heap events fired plus
	// slots run (a runaway-simulation guard).
	MaxEvents uint64
	// Shards > 1 runs each experiment's simulation on a conservative
	// PDES cluster with that many shards (one logical process per
	// simulated host; see DESIGN.md §6). Results are byte-identical to
	// the serial engine for every value. Beds whose endpoints share
	// cross-host state (TCP, closed-loop RPC and memcached apps)
	// colocate their hosts on one shard, which ShardsAuto resolves to
	// the serial engine.
	Shards int
	// Reconfig, when non-nil, replaces the built-in schedule of both
	// abl-reconfig and abl-crash (the -reconfig flag loads one from
	// JSON; host names must match their bed: client/server/spare).
	Reconfig *reconfig.Schedule
	// RxCache enables the ONCache-style RX decap fast path (per-core
	// flow caches, internal/overlay/rxcache.go) on every host. Off by
	// default: the cache is the abl-cache ablation's subject, and the
	// goldens pin the uncached behavior.
	RxCache bool

	// teardown holds the running experiment's unfinished audited bed
	// (track); withTeardown sets it. It is per-run state, not an option.
	teardown *teardown
}

// teardown is the one audited bed of a running experiment that has not
// had its end-of-run checks yet.
type teardown struct{ open *audit.Auditor }

// track hands a bed's auditor to the running experiment. It first
// finishes the bed tracked before: an experiment is done with a bed
// once it builds the next one, and finishing it here keeps one bed's
// packets in flight at a time. Holding every bed until the experiment
// returns runs fig2b's 64 KB beds out of memory at full windows.
func (o Options) track(a *audit.Auditor) {
	if o.teardown != nil {
		o.teardown.finish()
		o.teardown.open = a
	}
}

// finish runs the open bed's end-of-run checks (finishAudit).
func (td *teardown) finish() {
	if td.open != nil {
		finishAudit(td.open)
		td.open = nil
	}
}

// ShardsAuto is the Options.Shards sentinel for "pick shard and worker
// counts from the topology size and runtime.NumCPU()" (the CLI's
// -shards auto). Each bed resolves it against its own host count via
// sim.AutoShards at construction time.
const ShardsAuto = -1

// resolveShards maps the auto sentinel to a concrete (shards, workers)
// pair for a bed with the given host count. Explicit shard counts pass
// through with workers 0 (GOMAXPROCS-derived).
func resolveShards(shards, hosts int) (int, int) {
	if shards == ShardsAuto {
		return sim.AutoShards(hosts)
	}
	return shards, 0
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// warmup/window return the measurement phases.
func (o Options) warmup() sim.Time {
	if o.Quick {
		return 5 * sim.Millisecond
	}
	return 15 * sim.Millisecond
}

func (o Options) window() sim.Time {
	if o.Quick {
		return 10 * sim.Millisecond
	}
	return 40 * sim.Millisecond
}

// Experiment is one reproducible figure/table.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) []*stats.Table
	// Hidden experiments are excluded from All() (and thus -all runs):
	// they deliberately violate invariants to exercise the auditor and
	// exist so `falconsim -replay` has concrete failures to reproduce.
	Hidden bool
}

var registry []Experiment

func register(id, title string, run func(Options) []*stats.Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: withTeardown(run)})
}

func registerHidden(id, title string, run func(Options) []*stats.Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: withTeardown(run), Hidden: true})
}

// withTeardown runs an experiment so that every audited bed it builds
// ends with its end-of-run checks: each bed when the experiment builds
// the next (Options.track), the last after the experiment has returned
// its tables. A bed is finished only once the experiment has moved on
// from it, so the checks cannot change what it prints; CI's audit-on
// versus audit-off diff of every experiment holds that to account.
func withTeardown(run func(Options) []*stats.Table) func(Options) []*stats.Table {
	return func(opt Options) []*stats.Table {
		opt.teardown = &teardown{}
		tables := run(opt)
		opt.teardown.finish()
		return tables
	}
}

// All returns every non-hidden experiment, sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		if !e.Hidden {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Cell constructors shared by the harnesses. Each stores its value in
// the unit its column shows.

func fKpps(pps float64) stats.Cell { return stats.Num("%.1f", pps/1e3) }

func fGbps(g float64) stats.Cell { return stats.Num("%.2f", g) }

func fUs(ns int64) stats.Cell { return stats.Num("%.1f", float64(ns)/1e3) }

func fPct(x float64) stats.Cell { return stats.Num("%.1f%%", x*100) }

func fRatio(x float64) stats.Cell { return stats.Num("%.2fx", x) }

func fCount[T ~int | ~int64 | ~uint64](n T) stats.Cell { return stats.Num("%.0f", float64(n)) }
