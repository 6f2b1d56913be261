// Command falconsim regenerates the paper's tables and figures.
//
// Usage:
//
//	falconsim -list                    # list available experiments
//	falconsim -exp fig10               # run one experiment
//	falconsim -exp fig10,fig13         # run several
//	falconsim -all                     # run everything
//	falconsim -all -quick              # shorter measurement windows
//	falconsim -exp mesh8 -shards 4     # split one simulation into 4 logical processes
//	falconsim -exp mesh8 -shards auto  # one logical process per host
//	falconsim -exp fig10 -kernel 5.4
//	falconsim -exp fig10 -cpuprofile cpu.out -memprofile mem.out
//	falconsim -fuzz -seeds 50        # scenario fuzzing under the oracle battery
//	falconsim -scenario repro.json   # replay a fuzz reproducer
//
// Tables always print to stdout in the order the experiments were
// requested; per-experiment timing goes to stderr so stdout is
// byte-deterministic for a given seed. -shards runs each simulation on
// a conservative cluster of logical processes (auto: one per simulated
// host), all on one goroutine. It is a determinism cross-check: outputs
// are byte-identical to the serial engine for every shard count,
// including auto. Its speed comes from each logical process's shorter
// slot list, not from running on several CPUs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"falcon/internal/audit"
	"falcon/internal/costmodel"
	"falcon/internal/experiments"
	"falcon/internal/reconfig"
	"falcon/internal/scenario"
	"falcon/internal/sim"
	"falcon/internal/skb"
)

func main() {
	// All work happens in run so deferred cleanup (profile writers)
	// executes before the process exits.
	os.Exit(run())
}

func run() int {
	var (
		list      = flag.Bool("list", false, "list experiments and exit")
		expIDs    = flag.String("exp", "", "comma-separated experiment ids to run")
		all       = flag.Bool("all", false, "run every experiment")
		quick     = flag.Bool("quick", false, "short measurement windows")
		kernel    = flag.String("kernel", "", `kernel cost profile ("4.19" default, "5.4")`)
		seed      = flag.Uint64("seed", 1, "simulation seed")
		shardsF   = flag.String("shards", "", `logical processes per simulation, a determinism cross-check: a count (0/1 = serial engine), or "auto" for one per host of each bed; outputs are byte-identical for every value`)
		auditOn   = flag.Bool("audit", false, "enable runtime verification (SKB ledger, conservation invariants, watchdog); breaches abort with a replayable dump")
		cacheOn   = flag.Bool("cache", false, "enable the ONCache-style RX decap fast path (per-core flow caches) on every experiment host")
		deadline  = flag.Duration("deadline", 0, "abort the whole run after this wall-clock duration (0 = no limit)")
		maxEvents = flag.Uint64("max-events", 0, "abort any single experiment after executing this many engine steps, heap events fired plus slots run (0 = no limit)")
		replay    = flag.String("replay", "", "re-run the exact experiment/seed/config named in an audit dump's header and exit")
		reconfigF = flag.String("reconfig", "", "JSON schedule for abl-reconfig and abl-crash (replaces their built-in plans: upgrade/drain/flips, and the server crash)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")

		fuzz        = flag.Bool("fuzz", false, "generate random scenarios and check them against the metamorphic oracle battery")
		fuzzWorkers = flag.Int("fuzz-workers", 1, "with -fuzz: seeds run concurrently (each scenario owns its engine)")
		seeds       = flag.Int("seeds", 50, "with -fuzz: how many consecutive fuzz seeds to run")
		fuzzSeed    = flag.Uint64("fuzz-seed", 1, "with -fuzz: first fuzz seed")
		oracleSel   = flag.String("oracles", "", "with -fuzz/-scenario: comma-separated oracle subset (default all)")
		reproDir    = flag.String("repro-dir", ".", "with -fuzz: directory for shrunk reproducer files")
		scenarioF   = flag.String("scenario", "", "replay a scenario or fuzz-reproducer JSON file and exit")
		fuzzDefect  = flag.String("fuzz-defect", "", "seed a known datapath defect (fuzzer self-test): drop-falcon-cpu")
	)
	flag.Parse()

	shards, err := parseShards(*shardsF)
	if err == nil {
		err = checkKernel(*kernel)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}

	if *deadline > 0 {
		armDeadline(*deadline)
	}

	if *fuzzDefect != "" {
		if code := installDefect(*fuzzDefect); code != 0 {
			return code
		}
	}

	if *scenarioF != "" {
		return runScenario(*scenarioF, shards)
	}

	if *fuzz {
		var sel []string
		if *oracleSel != "" {
			sel = strings.Split(*oracleSel, ",")
		}
		extra := ""
		if *fuzzDefect != "" {
			extra = "-fuzz-defect " + *fuzzDefect
		}
		return runFuzz(scenario.FuzzOptions{
			Seeds: *seeds, StartSeed: *fuzzSeed, Oracles: sel,
			ReproDir: *reproDir, Workers: *fuzzWorkers, ExtraArgs: extra,
		})
	}

	if *replay != "" {
		return runReplay(*replay, *maxEvents)
	}

	var exps []experiments.Experiment
	if *all {
		exps = experiments.All()
	} else if *expIDs != "" {
		for _, id := range strings.Split(*expIDs, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "falconsim: unknown experiment %q (use -list)\n", id)
				return 1
			}
			exps = append(exps, e)
		}
	} else {
		flag.Usage()
		return 2
	}

	opt := experiments.Options{
		Quick: *quick, Kernel: *kernel, Seed: *seed,
		Audit: *auditOn, MaxEvents: *maxEvents, Shards: shards,
		RxCache: *cacheOn,
	}
	if err := loadScheduleFlag(&opt, *reconfigF); err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
		return 1
	}
	failures := runExperiments(exps, opt, os.Stdout)
	if n := skb.PoolMisuses(); n > 0 {
		fmt.Fprintf(os.Stderr, "falconsim: WARNING: %d SKB pool misuses (double-free or stale-generation free) were dropped; run with -audit for attribution\n", n)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "falconsim: %d experiment(s) failed\n", failures)
		return 1
	}
	return 0
}

// loadScheduleFlag resolves the -reconfig JSON file into the run
// options. Any malformed input — unreadable file, broken JSON, or a
// schedule that fails validation — comes back as a single-line error;
// the caller prints it and exits nonzero. This path must never panic on
// user input.
func loadScheduleFlag(opt *experiments.Options, path string) error {
	if path == "" {
		return nil
	}
	sched, err := reconfig.LoadFile(path)
	if err != nil {
		return err
	}
	opt.Reconfig = sched
	return nil
}

// writeMemProfile snapshots the heap at exit (after a GC, so the profile
// shows live objects rather than garbage awaiting collection).
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
	}
}

// armDeadline aborts the process (exit 3) if it outlives d — the guard
// against a hung simulation wedging CI forever. Profiles in flight are
// lost on this path; an abort is not a measurement.
func armDeadline(d time.Duration) {
	time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "falconsim: DEADLINE EXCEEDED after %v; aborting\n", d)
		os.Exit(3)
	})
}

// runReplay re-runs the run recorded in an audit dump header, with
// auditing on, and reports whether the failure reproduces: exit 1 with
// the violation when it does (the expected outcome for a genuine dump),
// exit 0 when the run now passes.
func runReplay(path string, maxEvents uint64) int {
	info, err := audit.ParseDumpFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
		return 2
	}
	e, ok := experiments.ByID(info.Exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "falconsim: dump names unknown experiment %q\n", info.Exp)
		return 2
	}
	opt, err := replayOptions(info, maxEvents)
	if err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: dump header: %v\n", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "falconsim: replaying %s (seed %d, kernel %q, quick %t, cache %t)\n",
		info.Exp, info.Seed, info.Kernel, info.Quick, info.Cache)
	code := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				code = 1
				if ab, isAudit := r.(*audit.Abort); isAudit {
					fmt.Fprintf(os.Stderr, "falconsim: REPRODUCED: %s\n", ab.V)
					audit.WriteDump(os.Stderr, info, ab.V, ab.A)
				} else {
					fmt.Fprintf(os.Stderr, "falconsim: REPRODUCED (panic): %v\n", r)
				}
			}
		}()
		e.Run(opt)
	}()
	if code == 0 {
		fmt.Fprintf(os.Stderr, "falconsim: replay completed clean — failure did not reproduce\n")
	}
	return code
}

// replayOptions rebuilds the options of the run a dump header names,
// with auditing on.
func replayOptions(info audit.RunInfo, maxEvents uint64) (experiments.Options, error) {
	opt := experiments.Options{
		Quick: info.Quick, Kernel: info.Kernel, Seed: uint64(info.Seed),
		Audit: true, MaxEvents: maxEvents, RxCache: info.Cache,
	}
	var err error
	if info.Reconfig != "" {
		opt.Reconfig, err = reconfig.FromJSON([]byte(info.Reconfig))
	}
	return opt, err
}

// dumpInfo names a run in a dump header: everything -replay needs to
// rerun it with the same output.
func dumpInfo(id string, opt experiments.Options) audit.RunInfo {
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	info := audit.RunInfo{Exp: id, Seed: int64(seed), Kernel: opt.Kernel, Quick: opt.Quick, Cache: opt.RxCache}
	// A schedule is a plain struct: marshaling cannot fail.
	if opt.Reconfig != nil {
		b, _ := json.Marshal(opt.Reconfig)
		info.Reconfig = string(b)
	}
	return info
}

// parseShards maps the -shards flag to an Options.Shards value: empty or
// a number pass through (0/1 = serial), "auto" becomes the sentinel each
// bed resolves against its own topology via sim.AutoShards.
func parseShards(s string) (int, error) {
	switch s {
	case "":
		return 0, nil
	case "auto":
		return experiments.ShardsAuto, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf(`-shards: want a non-negative count or "auto", got %q`, s)
	}
	return n, nil
}

// checkKernel rejects a -kernel name no cost profile answers to, which
// costmodel.ByName would otherwise run as 4.19 without a word.
func checkKernel(name string) error {
	if !costmodel.Known(name) {
		return fmt.Errorf(`-kernel: want "4.19" or "5.4" (optionally "linux-" prefixed), got %q`, name)
	}
	return nil
}

// runExperiments runs the experiments sequentially and streams rendered
// tables to out in request order. A panic (audit
// abort, event-budget breach, or a genuine bug) is recovered and
// reported on stderr with the failing experiment/seed — audit aborts
// additionally write a replayable dump — and the failure count is
// returned instead of crashing the run.
func runExperiments(exps []experiments.Experiment, opt experiments.Options, out io.Writer) int {
	failures := 0
	for i, e := range exps {
		func() {
			defer func() {
				if r := recover(); r != nil {
					failures++
					reportRunPanic(e, opt, i, len(exps), r)
				}
			}()
			start := time.Now()
			tables := e.Run(opt)
			var b strings.Builder
			fmt.Fprintf(&b, "### %s — %s\n\n", e.ID, e.Title)
			for _, t := range tables {
				fmt.Fprintln(&b, t)
			}
			fmt.Fprintf(os.Stderr, "falconsim: %s  [%.1fs]\n", e.ID, time.Since(start).Seconds())
			fmt.Fprint(out, b.String())
		}()
	}
	return failures
}

// reportRunPanic renders one recovered experiment failure: the failing
// experiment and seed on stderr, plus a replayable dump file for audit
// aborts and a state dump for event-budget breaches.
func reportRunPanic(e experiments.Experiment, opt experiments.Options, idx, total int, r any) {
	info := dumpInfo(e.ID, opt)
	fmt.Fprintf(os.Stderr, "falconsim: PANIC in %s (seed %d, experiment %d/%d): %v\n",
		e.ID, info.Seed, idx+1, total, r)
	switch v := r.(type) {
	case *audit.Abort:
		path := fmt.Sprintf("falcon-audit-%s.dump", e.ID)
		if err := audit.WriteDumpFile(path, info, v.V, v.A); err != nil {
			fmt.Fprintf(os.Stderr, "falconsim: writing dump: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "falconsim: audit dump written to %s (reproduce: falconsim -replay %s)\n", path, path)
	case *sim.BudgetExceeded:
		fmt.Fprintf(os.Stderr, "falconsim: event budget exhausted: %v (runaway simulation? raise -max-events)\n", v)
	}
}
