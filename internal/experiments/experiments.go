// Package experiments regenerates every table and figure in the paper's
// evaluation (Section 2.2 motivation and Section 6). Each experiment is
// a named harness that builds the right testbed, drives the paper's
// workload, and emits stats.Tables shaped like the figure's rows/series.
// EXPERIMENTS.md records paper-vs-measured for each id.
package experiments

import (
	"fmt"
	"sort"

	"falcon/internal/reconfig"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// Options tunes a run. Every testbed-based experiment builds its beds
// through newBed and every multi-host one through buildFabric, so each
// field below holds for every experiment unless its comment says
// otherwise.
type Options struct {
	// Kernel selects the cost profile ("linux-4.19" default).
	Kernel string
	// Quick shortens measurement windows (used by tests; benchmarks and
	// the CLI use full windows).
	Quick bool
	// Seed for determinism (0 → 1).
	Seed uint64
	// Audit enables the runtime verification subsystem (internal/audit)
	// on every testbed; an invariant breach aborts the run with an
	// *audit.Abort panic. The fabric beds (mesh8, abl-cache's mesh rows)
	// have no audit harness.
	Audit bool
	// MaxEvents, when positive, aborts the run with *sim.BudgetExceeded
	// after executing that many engine events, fired plus inlined (a
	// runaway-simulation guard).
	MaxEvents uint64
	// Shards > 1 runs each experiment's simulation on a conservative
	// PDES cluster with that many shards (one logical process per
	// simulated host; see DESIGN.md §6). Results are byte-identical to
	// the serial engine for every value. Beds whose endpoints share
	// cross-host state (TCP, closed-loop RPC and memcached apps)
	// colocate their hosts on one shard, which ShardsAuto resolves to
	// the serial engine.
	Shards int
	// Reconfig, when non-nil, replaces abl-reconfig's built-in
	// generation schedule (the -reconfig flag loads one from JSON; host
	// names must match the reconfig bed: client/server/spare).
	Reconfig *reconfig.Schedule
	// Crash, when non-nil, replaces abl-crash's built-in crash/partition
	// schedule (the -crash flag loads one from JSON; host names must
	// match the reconfig bed: client/server — the spare is the standby
	// twin target and cannot itself crash).
	Crash *reconfig.CrashSchedule
	// RxCache enables the ONCache-style RX decap fast path (per-core
	// flow caches, internal/overlay/rxcache.go) on every host. Off by
	// default: the cache is the abl-cache ablation's subject, and the
	// goldens pin the uncached behavior.
	RxCache bool
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
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

func registerHidden(id, title string, run func(Options) []*stats.Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run, Hidden: true})
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

// Formatting helpers shared by the harnesses.

func fKpps(pps float64) string { return fmt.Sprintf("%.1f", pps/1e3) }

func fGbps(g float64) string { return fmt.Sprintf("%.2f", g) }

func fUs(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e3) }

func fPct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

func fRatio(x float64) string { return fmt.Sprintf("%.2fx", x) }
