// Command falconsim regenerates the paper's tables and figures.
//
// Usage:
//
//	falconsim -list                    # list available experiments
//	falconsim -exp fig10               # run one experiment
//	falconsim -exp fig10,fig13         # run several
//	falconsim -all                     # run everything
//	falconsim -all -quick              # shorter measurement windows
//	falconsim -exp mesh8 -shards 4     # PDES: shard one simulation across goroutines
//	falconsim -exp mesh8 -shards auto  # pick shards/workers from topology × NumCPU
//	falconsim -exp fig10 -kernel 5.4
//	falconsim -exp fig10 -cpuprofile cpu.out -memprofile mem.out
//	falconsim -bench-report BENCH_sim.json
//	falconsim -scale                 # sweep -shards {1,2,4,auto} over the PDES bench
//	falconsim -fuzz -seeds 50        # scenario fuzzing under the oracle battery
//	falconsim -scenario repro.json   # replay a fuzz reproducer
//
// Tables always print to stdout in the order the experiments were
// requested; per-experiment timing goes to stderr so stdout is
// byte-deterministic for a given seed. -shards runs each simulation on
// a conservative PDES cluster (one logical process per simulated
// host); outputs are byte-identical to the serial engine for every
// shard count, including auto.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"falcon/internal/audit"
	"falcon/internal/experiments"
	"falcon/internal/reconfig"
	"falcon/internal/scenario"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
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
		shardsF   = flag.String("shards", "", `PDES shards per simulation: a count (0/1 = serial engine), or "auto" to derive shards and workers from each bed's topology and runtime.NumCPU(); outputs are byte-identical for every value`)
		report    = flag.String("bench-report", "", "write a hot-path benchmark report to this JSON file and exit")
		baseline  = flag.String("bench-baseline", "", "with -bench-report: fail on regression against this baseline JSON (allocs/pkt, ns/pkt, sharded speedup)")
		auditOn   = flag.Bool("audit", false, "enable runtime verification (SKB ledger, conservation invariants, watchdog); breaches abort with a replayable dump")
		cacheOn   = flag.Bool("cache", false, "enable the ONCache-style RX decap fast path (per-core flow caches) on every experiment host")
		deadline  = flag.Duration("deadline", 0, "abort the whole run after this wall-clock duration (0 = no limit)")
		maxEvents = flag.Uint64("max-events", 0, "abort any single experiment after executing this many engine events, fired plus CPU slices run ahead inline (0 = no limit)")
		replay    = flag.String("replay", "", "re-run the exact experiment/seed/config named in an audit dump's header and exit")
		reconfigF = flag.String("reconfig", "", "JSON generation schedule for abl-reconfig (replaces its built-in rolling-upgrade/drain/flip plan)")
		crashF    = flag.String("crash", "", "JSON crash schedule for abl-crash (replaces its built-in server crash/reboot plan)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")

		scale = flag.Bool("scale", false, "sweep the PDES benchmark over -shards {1,2,4,auto} and print a scaling table")

		fuzz        = flag.Bool("fuzz", false, "generate random scenarios and check them against the metamorphic oracle battery")
		fuzzWorkers = flag.Int("fuzz-workers", 1, "with -fuzz: seeds run concurrently (each scenario owns its engine)")
		seeds       = flag.Int("seeds", 50, "with -fuzz: how many consecutive fuzz seeds to run")
		fuzzSeed    = flag.Uint64("fuzz-seed", 1, "with -fuzz: first fuzz seed")
		oracleSel   = flag.String("oracles", "", "with -fuzz/-scenario: comma-separated oracle subset (default all)")
		reproDir    = flag.String("repro-dir", ".", "with -fuzz: directory for shrunk reproducer files")
		noShrink    = flag.Bool("no-shrink", false, "with -fuzz: skip minimization of violating scenarios")
		scenarioF   = flag.String("scenario", "", "replay a scenario or fuzz-reproducer JSON file and exit")
		fuzzDefect  = flag.String("fuzz-defect", "", "seed a known datapath defect (fuzzer self-test): drop-falcon-cpu")
	)
	flag.Parse()

	shards, err := parseShards(*shardsF)
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
			ReproDir: *reproDir, NoShrink: *noShrink,
			Workers: *fuzzWorkers, ExtraArgs: extra,
		})
	}

	if *replay != "" {
		return runReplay(*replay, *maxEvents)
	}

	if *report != "" {
		return benchReport(*report, *baseline, shards,
			experiments.Options{Kernel: *kernel, Seed: *seed})
	}

	if *scale {
		return runScale(experiments.Options{Kernel: *kernel, Seed: *seed})
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
	if err := loadScheduleFlags(&opt, *reconfigF, *crashF); err != nil {
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

// loadScheduleFlags resolves the -reconfig and -crash JSON files into
// the run options. Any malformed input — unreadable file, broken JSON,
// or a schedule that fails validation — comes back as a single-line
// error; the caller prints it and exits nonzero. This path must never
// panic on user input.
func loadScheduleFlags(opt *experiments.Options, reconfigPath, crashPath string) error {
	if reconfigPath != "" {
		sched, err := reconfig.LoadFile(reconfigPath)
		if err != nil {
			return err
		}
		opt.Reconfig = sched
	}
	if crashPath != "" {
		cs, err := reconfig.LoadCrashFile(crashPath)
		if err != nil {
			return err
		}
		opt.Crash = cs
	}
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
	if info.Scenario != "" {
		// Fuzz-scenario dump: the header embeds the scenario itself and
		// (as exp=fuzz/<oracle>) the oracle to re-check.
		return replayScenarioDump(info)
	}
	e, ok := experiments.ByID(info.Exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "falconsim: dump names unknown experiment %q\n", info.Exp)
		return 2
	}
	opt := experiments.Options{
		Quick: info.Quick, Kernel: info.Kernel, Seed: uint64(info.Seed),
		Audit: true, MaxEvents: maxEvents,
	}
	fmt.Fprintf(os.Stderr, "falconsim: replaying %s (seed %d, kernel %q, quick %t)\n",
		info.Exp, info.Seed, info.Kernel, info.Quick)
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

// runExperiments runs the experiments sequentially — simulation-level
// parallelism now lives inside each run (-shards), where it speeds up a
// single simulation instead of merely overlapping independent ones —
// and streams rendered tables to out in request order. A panic (audit
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
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	fmt.Fprintf(os.Stderr, "falconsim: PANIC in %s (seed %d, experiment %d/%d): %v\n",
		e.ID, seed, idx+1, total, r)
	info := audit.RunInfo{Exp: e.ID, Seed: int64(seed), Kernel: opt.Kernel, Quick: opt.Quick}
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

// windowBench summarizes the cluster's synchronization behaviour over
// one sharded run: how many safe-horizon windows the coordinator cut,
// how wide they were in simulated time, how much cross-shard traffic
// each carried, and what fraction of worker slots sat idle (busy-shard
// deficit, not OS scheduling).
type windowBench struct {
	Windows          uint64  `json:"windows"`
	WindowsPerSec    float64 `json:"windows_per_sec"`
	AvgWidthSimNs    float64 `json:"avg_width_sim_ns"`
	CrossShardMsgs   uint64  `json:"cross_shard_msgs"`
	MsgsPerWindow    float64 `json:"msgs_per_window"`
	WorkerIdleFrac   float64 `json:"worker_idle_fraction"`
	AvgBusyShards    float64 `json:"avg_busy_shards"`
	GlobalEvents     uint64  `json:"global_events"`
	AdaptiveHorizons bool    `json:"adaptive_horizons"`
}

// shardedBench records the intra-simulation PDES comparison: one
// multi-host experiment run to completion on the serial engine and again
// on an N-shard cluster producing byte-identical output. NumCPU is the
// host's core count at measurement time — on fewer cores than shards the
// speedup honestly reflects synchronization overhead, not parallelism.
type shardedBench struct {
	Shards         int         `json:"shards"`
	Experiment     string      `json:"experiment"`
	NumCPU         int         `json:"num_cpu"`
	SerialSeconds  float64     `json:"serial_seconds"`
	ShardedSeconds float64     `json:"sharded_seconds"`
	Speedup        float64     `json:"speedup"`
	Windows        windowBench `json:"windows"`
}

// autoBench records the -shards auto resolution and its wall-clock
// against the same serial baseline: the counts sim.AutoShards picked for
// the benchmark topology on this machine. On a single-CPU host auto
// degrades to the serial engine and the speedup is exactly 1.0x by
// construction.
type autoBench struct {
	Shards  int     `json:"shards"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup"`
}

// latencySummary is one experiment's merged end-to-end latency
// percentiles (nanoseconds of simulated time, so the numbers are
// deterministic for a given seed — unlike the wall-clock fields, the
// guard can hold these to a tight band).
type latencySummary struct {
	Count  uint64 `json:"count"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
}

// latencyBench is the report's tail-latency section: each tracked
// experiment run with an attached histogram (quick windows keep the
// bench job fast), keyed by experiment id.
type latencyBench struct {
	Quick       bool                      `json:"quick"`
	Experiments map[string]latencySummary `json:"experiments"`
}

type benchReportFile struct {
	HotPath experiments.HotPathBench    `json:"hot_path"`
	Sharded shardedBench                `json:"sharded"`
	Auto    autoBench                   `json:"sharded_auto"`
	Latency latencyBench                `json:"latency"`
	Cache   experiments.CacheComparison `json:"cache"`
}

// latencyBenchExps are the experiments whose merged latency histograms
// the report tracks: the headline UDP stress, the multi-host ring, and
// the open-loop overload sweep.
var latencyBenchExps = []string{"fig10", "mesh8", "abl-tail"}

// benchLatency runs each tracked experiment with a tail-latency
// histogram attached and summarizes the merged samples.
func benchLatency(opt experiments.Options) latencyBench {
	lat := latencyBench{Quick: true, Experiments: map[string]latencySummary{}}
	for _, id := range latencyBenchExps {
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "falconsim: bench: latency experiment %q missing\n", id)
			continue
		}
		fmt.Fprintf(os.Stderr, "falconsim: bench: %s latency (quick windows)...\n", id)
		hist := stats.NewHistogram()
		lopt := opt
		lopt.Quick = true
		lopt.TailLatency = hist
		e.Run(lopt)
		s := hist.Summarize()
		lat.Experiments[id] = latencySummary{
			Count: s.Count, P50Ns: s.P50, P99Ns: s.P99, P999Ns: s.P999,
		}
	}
	return lat
}

// shardBenchExp is the experiment the sharded-vs-serial benchmark times:
// the 8-host ring is the smallest topology where every shard both sends
// and receives cross-shard traffic.
const shardBenchExp = "mesh8"

// shardBenchHosts is shardBenchExp's host count, used to report what
// -shards auto resolves to on this machine.
const shardBenchHosts = 8

// fillWindowBench derives the report's window metrics from the raw
// cluster counters and the run's wall-clock.
func fillWindowBench(ws sim.ClusterStats, seconds float64, adaptive bool) windowBench {
	wb := windowBench{
		Windows:          ws.Windows,
		CrossShardMsgs:   ws.Msgs,
		GlobalEvents:     ws.Globals,
		AdaptiveHorizons: adaptive,
	}
	if ws.Windows > 0 {
		wb.AvgWidthSimNs = float64(ws.WidthSum) / float64(ws.Windows)
		wb.MsgsPerWindow = float64(ws.Msgs) / float64(ws.Windows)
		wb.AvgBusyShards = float64(ws.BusySum) / float64(ws.Windows)
	}
	if seconds > 0 {
		wb.WindowsPerSec = float64(ws.Windows) / seconds
	}
	if ws.Slots > 0 {
		wb.WorkerIdleFrac = 1 - float64(ws.UsedSlots)/float64(ws.Slots)
	}
	return wb
}

// benchReport produces BENCH_sim.json: full-window hot-path metrics and
// the intra-simulation PDES speedup (forced shard count plus the
// -shards auto resolution), optionally guarded against a committed
// baseline. Returns the process exit code.
func benchReport(path, baselinePath string, shards int, opt experiments.Options) int {
	if shards <= 1 {
		shards = 4
	}
	fmt.Fprintf(os.Stderr, "falconsim: bench: hot path (full windows)...\n")
	hot := experiments.BenchHotPath(opt)

	mesh, ok := experiments.ByID(shardBenchExp)
	if !ok {
		fmt.Fprintf(os.Stderr, "falconsim: bench: experiment %q missing\n", shardBenchExp)
		return 1
	}
	fmt.Fprintf(os.Stderr, "falconsim: bench: %s serial (full windows)...\n", shardBenchExp)
	meshSerial := timeExp(mesh, opt)

	sopt := opt
	sopt.Shards = shards
	var ws sim.ClusterStats
	sopt.WindowStats = &ws
	fmt.Fprintf(os.Stderr, "falconsim: bench: %s -shards %d (full windows)...\n", shardBenchExp, shards)
	meshSharded := timeExp(mesh, sopt)

	aopt := opt
	aopt.Shards = experiments.ShardsAuto
	autoShards, autoWorkers := sim.AutoShards(shardBenchHosts)
	fmt.Fprintf(os.Stderr, "falconsim: bench: %s -shards auto → %d shards, %d workers (full windows)...\n",
		shardBenchExp, autoShards, autoWorkers)
	meshAuto := timeExp(mesh, aopt)

	lat := benchLatency(opt)

	// Cache-vs-Falcon comparison on quick windows: the ratios and hit
	// rate are simulated-time quantities, deterministic for the seed.
	copt := opt
	copt.Quick = true
	fmt.Fprintf(os.Stderr, "falconsim: bench: rx-cache comparison (quick windows)...\n")
	cache := experiments.MeasureCache(copt)

	rep := benchReportFile{
		HotPath: hot,
		Sharded: shardedBench{
			Shards: shards, Experiment: shardBenchExp, NumCPU: runtime.NumCPU(),
			SerialSeconds: meshSerial, ShardedSeconds: meshSharded,
			Speedup: meshSerial / meshSharded,
			Windows: fillWindowBench(ws, meshSharded, true),
		},
		Auto: autoBench{
			Shards: autoShards, Workers: autoWorkers,
			Seconds: meshAuto, Speedup: meshSerial / meshAuto,
		},
		Latency: lat,
		Cache:   cache,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr,
		"falconsim: bench: %.0f events/s (%d fired, %d slices inlined), %.0f ns/pkt, %.1f allocs/pkt, %s speedup %.2fx (%d shards, %d cpus; auto → %dx%d, %.2fx), %d windows (%.0f sim-ns avg, %.1f msgs/window, %.0f%% idle)\n",
		hot.EventsPerSec, hot.Events, hot.Inlined, hot.NsPerPacket, hot.AllocsPerPacket,
		shardBenchExp, rep.Sharded.Speedup, shards, rep.Sharded.NumCPU,
		autoShards, autoWorkers, rep.Auto.Speedup,
		ws.Windows, rep.Sharded.Windows.AvgWidthSimNs, rep.Sharded.Windows.MsgsPerWindow,
		rep.Sharded.Windows.WorkerIdleFrac*100)

	fmt.Fprintf(os.Stderr,
		"falconsim: bench: rx-cache %.2fx vs vanilla (falcon %.2fx, both ns/pkt %.0f), hit-rate %.1f%%, %.1f allocs/pkt\n",
		cache.CacheImprovement, cache.FalconImprovement, cache.CombinedNsPerPkt,
		cache.CacheHitRate*100, cache.CacheAllocsPerPacket)

	if baselinePath != "" {
		return guardBaseline(baselinePath, hot, rep.Sharded, rep.Latency, cache)
	}
	return 0
}

// runScale sweeps the PDES benchmark over shard configurations and
// prints one row per configuration: wall-clock, speedup vs the serial
// row, and the window synchronization metrics. Timing noise makes this
// output non-deterministic, so it prints to stdout as a tool report,
// not an experiment table.
func runScale(opt experiments.Options) int {
	mesh, ok := experiments.ByID(shardBenchExp)
	if !ok {
		fmt.Fprintf(os.Stderr, "falconsim: scale: experiment %q missing\n", shardBenchExp)
		return 1
	}
	autoShards, autoWorkers := sim.AutoShards(shardBenchHosts)
	fmt.Printf("PDES scaling sweep: %s, %d hosts, %d cpus (auto → %d shards, %d workers)\n",
		shardBenchExp, shardBenchHosts, runtime.NumCPU(), autoShards, autoWorkers)
	fmt.Printf("%-8s %10s %8s %9s %14s %12s %9s\n",
		"shards", "seconds", "speedup", "windows", "width(sim-ns)", "msgs/window", "idle")
	var serial float64
	for _, cfg := range []int{1, 2, 4, experiments.ShardsAuto} {
		label := fmt.Sprintf("%d", cfg)
		if cfg == experiments.ShardsAuto {
			label = "auto"
		}
		sopt := opt
		sopt.Shards = cfg
		var ws sim.ClusterStats
		sopt.WindowStats = &ws
		secs := timeExp(mesh, sopt)
		if cfg == 1 {
			serial = secs
		}
		speedup := 0.0
		if secs > 0 {
			speedup = serial / secs
		}
		wb := fillWindowBench(ws, secs, true)
		if ws.Windows == 0 {
			fmt.Printf("%-8s %10.3f %7.2fx %9s %14s %12s %9s\n",
				label, secs, speedup, "-", "-", "-", "-")
			continue
		}
		fmt.Printf("%-8s %10.3f %7.2fx %9d %14.0f %12.1f %8.1f%%\n",
			label, secs, speedup, wb.Windows, wb.AvgWidthSimNs,
			wb.MsgsPerWindow, wb.WorkerIdleFrac*100)
	}
	return 0
}

// timeExp runs one experiment, discarding its tables, and returns
// wall-clock seconds.
func timeExp(e experiments.Experiment, opt experiments.Options) float64 {
	start := time.Now()
	e.Run(opt)
	return time.Since(start).Seconds()
}

// guardBaseline fails (exit 1) on performance regression against the
// committed baseline report: allocs/packet beyond +10%, ns/packet beyond
// +35% (wall-clock, so the bound is loose against machine noise), p99
// latency beyond +25% on any tracked experiment (simulated time, so the
// bound is pure datapath behaviour, no machine noise), or — on hardware
// with enough cores for the shards to actually run in parallel —
// sharded speedup below 1.15x. When the baseline carries a cache
// section, the RX flow cache's floors are also enforced: ≥1.30x
// softirq-ns/pkt improvement over vanilla at a ≥90% warm hit rate, and
// cache-run allocs/pkt within +10% of baseline.
func guardBaseline(path string, hot experiments.HotPathBench, sharded shardedBench, lat latencyBench, cache experiments.CacheComparison) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: baseline: %v\n", err)
		return 1
	}
	var base benchReportFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: baseline: %v\n", err)
		return 1
	}
	code := 0
	limit := base.HotPath.AllocsPerPacket * 1.10
	if hot.AllocsPerPacket > limit {
		fmt.Fprintf(os.Stderr,
			"falconsim: ALLOC REGRESSION: %.2f allocs/pkt > %.2f (baseline %.2f +10%%)\n",
			hot.AllocsPerPacket, limit, base.HotPath.AllocsPerPacket)
		code = 1
	} else {
		fmt.Fprintf(os.Stderr, "falconsim: allocs/pkt %.2f within baseline %.2f +10%%\n",
			hot.AllocsPerPacket, base.HotPath.AllocsPerPacket)
	}
	if base.HotPath.NsPerPacket > 0 {
		nsLimit := base.HotPath.NsPerPacket * 1.35
		if hot.NsPerPacket > nsLimit {
			fmt.Fprintf(os.Stderr,
				"falconsim: SPEED REGRESSION: %.0f ns/pkt > %.0f (baseline %.0f +35%%)\n",
				hot.NsPerPacket, nsLimit, base.HotPath.NsPerPacket)
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "falconsim: ns/pkt %.0f within baseline %.0f +35%%\n",
				hot.NsPerPacket, base.HotPath.NsPerPacket)
		}
	}
	ids := make([]string, 0, len(base.Latency.Experiments))
	for id := range base.Latency.Experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b := base.Latency.Experiments[id]
		if b.Count == 0 {
			continue // baseline predates latency tracking for this id
		}
		cur, ok := lat.Experiments[id]
		if !ok || cur.Count == 0 {
			fmt.Fprintf(os.Stderr,
				"falconsim: LATENCY REGRESSION: %s produced no latency samples (baseline had %d)\n",
				id, b.Count)
			code = 1
			continue
		}
		p99Limit := int64(float64(b.P99Ns) * 1.25)
		if cur.P99Ns > p99Limit {
			fmt.Fprintf(os.Stderr,
				"falconsim: LATENCY REGRESSION: %s p99 %dns > %dns (baseline %dns +25%%)\n",
				id, cur.P99Ns, p99Limit, b.P99Ns)
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "falconsim: %s p99 %dns within baseline %dns +25%%\n",
				id, cur.P99Ns, b.P99Ns)
		}
	}
	if base.Cache.VanillaNsPerPkt > 0 { // baseline predates the cache section otherwise
		const improveFloor, hitFloor = 1.30, 0.90
		if cache.CacheImprovement < improveFloor {
			fmt.Fprintf(os.Stderr,
				"falconsim: CACHE REGRESSION: %.2fx improvement over vanilla < %.2fx floor\n",
				cache.CacheImprovement, improveFloor)
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "falconsim: rx-cache improvement %.2fx >= %.2fx floor\n",
				cache.CacheImprovement, improveFloor)
		}
		if cache.CacheHitRate < hitFloor {
			fmt.Fprintf(os.Stderr,
				"falconsim: CACHE REGRESSION: hit rate %.1f%% < %.0f%% floor\n",
				cache.CacheHitRate*100, hitFloor*100)
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "falconsim: rx-cache hit rate %.1f%% >= %.0f%% floor\n",
				cache.CacheHitRate*100, hitFloor*100)
		}
		allocLimit := base.Cache.CacheAllocsPerPacket * 1.10
		if cache.CacheAllocsPerPacket > allocLimit {
			fmt.Fprintf(os.Stderr,
				"falconsim: CACHE ALLOC REGRESSION: %.2f allocs/pkt > %.2f (baseline %.2f +10%%)\n",
				cache.CacheAllocsPerPacket, allocLimit, base.Cache.CacheAllocsPerPacket)
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "falconsim: rx-cache allocs/pkt %.2f within baseline %.2f +10%%\n",
				cache.CacheAllocsPerPacket, base.Cache.CacheAllocsPerPacket)
		}
	}
	// The speedup floor only means something when the shards can really
	// run concurrently; on smaller machines the sharded run measures
	// synchronization overhead and the floor would always fail.
	const speedupFloor = 1.15
	if runtime.NumCPU() >= 4 {
		if sharded.Speedup < speedupFloor {
			fmt.Fprintf(os.Stderr,
				"falconsim: SHARD SPEEDUP REGRESSION: %.2fx < %.2fx floor (%d shards on %d cpus)\n",
				sharded.Speedup, speedupFloor, sharded.Shards, runtime.NumCPU())
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "falconsim: sharded speedup %.2fx >= %.2fx floor\n",
				sharded.Speedup, speedupFloor)
		}
	} else {
		fmt.Fprintf(os.Stderr,
			"falconsim: sharded speedup %.2fx recorded, floor skipped (%d cpus < 4)\n",
			sharded.Speedup, runtime.NumCPU())
	}
	return code
}
