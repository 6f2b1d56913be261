package experiments

import (
	"fmt"

	"falcon/internal/faults"
	"falcon/internal/overlay"
	"falcon/internal/reconfig"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// abl-crash: host crash and recovery under load. The same fixed-rate UDP
// flow and client/server/spare bed as abl-reconfig, but the server is
// killed mid-window with packets in its rings — no drain, no warning.
// The failure detector must notice the silenced heartbeats, remap the
// dead host's container onto the spare's standby twin, and detach the
// corpse's LP; the reboot must re-admit it. The properties under test:
// zero packets unaccounted across the crash (everything the corpse
// destroyed lands in the crash drop bucket), blackout bounded by
// detection latency plus the remap transit gap, and steady-state
// goodput within 2% of an undisturbed baseline after recovery.

func init() {
	register("abl-crash", "Host crash/recovery: fail-over, blackout and conservation SLOs", ablCrash)
}

// crashBlackoutBudgetMs bounds any full-blackout stretch: detector
// timeout (2ms) + SickAfter scans (2 x 0.5ms) + remap transit (0.2ms) +
// heartbeat age at death (<= one 1ms tick), rounded to whole buckets.
const crashBlackoutBudgetMs = 4

// crashTransitUs is the fail-over remap's transit gap (matches the
// default drain schedule).
const crashTransitUs = 200

// defaultCrashSchedule kills the server early enough that detection,
// fail-over and reboot all land inside the window: times are in units of
// windowMs/10 so quick and full runs exercise the same shape.
func defaultCrashSchedule(windowMs int) *reconfig.CrashSchedule {
	u := windowMs / 10
	if u < 1 {
		u = 1
	}
	return &reconfig.CrashSchedule{
		Crashes: []reconfig.CrashEvent{
			{Host: "server", AtMs: 2 * u, RebootMs: 6 * u},
		},
	}
}

// installCrashFaults turns the declarative schedule into injector
// windows. A crash without a reboot (and a partition without a heal)
// gets a window ending past any possible run end, so Revert never fires.
func installCrashFaults(tb *workload.Testbed, cs *reconfig.CrashSchedule, base, until sim.Time) {
	hostByName := func(name string) *overlay.Host {
		for _, h := range tb.Hosts() {
			if h.Name == name {
				return h
			}
		}
		panic(fmt.Sprintf("abl-crash: unknown host %q in crash schedule", name))
	}
	never := until + sim.Second // run end + straggler flush headroom
	plan := faults.Plan{Name: "crash-schedule"}
	for _, c := range cs.Crashes {
		at := base + sim.Time(c.AtMs)*sim.Millisecond
		end := never
		if c.RebootMs > 0 {
			end = base + sim.Time(c.RebootMs)*sim.Millisecond
		}
		plan.Items = append(plan.Items, faults.Item{
			At: at, For: end - at,
			Fault: &faults.HostCrash{Host: hostByName(c.Host)},
		})
	}
	for _, p := range cs.Partitions {
		at := base + sim.Time(p.AtMs)*sim.Millisecond
		end := never
		if p.HealMs > 0 {
			end = base + sim.Time(p.HealMs)*sim.Millisecond
		}
		plan.Items = append(plan.Items, faults.Item{
			At: at, For: end - at,
			Fault: &faults.KVPartition{KV: tb.Net.KV, Host: hostByName(p.Host)},
		})
	}
	faults.NewInjector(tb.E).Install(plan)
}

// armCrash returns runDisturbed's arm for a crash schedule: the
// failure detector watches every scheduled victim with the spare as its
// standby twin target, and the crashes and partitions become injector
// windows.
func armCrash(opt Options, cs *reconfig.CrashSchedule) func(*workload.Testbed, sim.Time) *reconfig.Manager {
	return func(tb *workload.Testbed, until sim.Time) *reconfig.Manager {
		mgr := reconfig.New(tb.Net, &reconfig.Schedule{})
		twins := map[string]string{}
		for _, c := range cs.Crashes {
			if c.Host == "spare" {
				panic("abl-crash: the spare is the standby target and cannot crash")
			}
			twins[c.Host] = "spare"
		}
		if err := mgr.StartDetector(reconfig.DetectorConfig{TransitUs: crashTransitUs},
			twins, opt.warmup(), until); err != nil {
			panic(fmt.Sprintf("abl-crash: %v", err))
		}
		installCrashFaults(tb, cs, opt.warmup(), until)
		return mgr
	}
}

// crashBlackout scans every per-ms bucket pair for the longest stretch
// where the crash run delivered nothing while the baseline delivered
// something. Unlike reconfig.Analyze it is not anchored to generation
// records: the blackout starts at the crash itself, which precedes the
// fail-over record by the whole detection latency.
func crashBlackout(run, base []uint64) int {
	longest, streak := 0, 0
	for b := 1; b < len(run) && b < len(base); b++ {
		if run[b]-run[b-1] == 0 && base[b]-base[b-1] != 0 {
			streak++
			if streak > longest {
				longest = streak
			}
		} else {
			streak = 0
		}
	}
	return longest
}

// crashRecover returns how many ms after the first crash the run's
// per-ms delivery first came back to >= 80% of the baseline bucket (-1:
// never).
func crashRecover(run, base []uint64, crashMs int) int {
	for b := crashMs + 1; b < len(run) && b < len(base); b++ {
		rd, bd := run[b]-run[b-1], base[b]-base[b-1]
		if bd == 0 || float64(rd) >= 0.8*float64(bd) {
			return b - crashMs
		}
	}
	return -1
}

func ablCrash(opt Options) []*stats.Table {
	windowMs := int(opt.window() / sim.Millisecond)
	detail := &stats.Table{
		Title: "Host crash: failure-driven generations (64B UDP at 100Kpps, 100G)",
		Columns: []string{"mode", "gen", "action", "at(ms)", "blackout(ms)",
			"loss(pkts)", "crash/resolve/nic", "recover(ms)"},
	}
	verdict := &stats.Table{
		Title: "Host crash verdicts: blackout, conservation, recovery",
		Columns: []string{"mode", "base(Kpps)", "crash(Kpps)", "ratio", "unaccounted",
			"detect(ms)", "blackout(ms)", "recover(ms)", "verdict"},
	}
	for _, mode := range []workload.Mode{workload.ModeCon, workload.ModeFalcon} {
		cs := opt.Crash
		if cs == nil {
			cs = defaultCrashSchedule(windowMs)
		}

		base := runDisturbed(mode, opt, nil)
		run := runDisturbed(mode, opt, armCrash(opt, cs))
		conv := reconfig.Analyze(run.samples, base.samples, run.recs, opt.warmup(), run.final)
		for i, rec := range run.recs {
			c := conv[i]
			detail.AddRow(mode.String(), fmt.Sprintf("%d", rec.Gen), c.Kind,
				fmt.Sprintf("%d", c.AtMs), fmt.Sprintf("%d", c.BlackoutMs),
				fmt.Sprintf("%d", c.LossPkts),
				fmt.Sprintf("%d/%d/%d", c.Drops.Crash, c.Drops.Resolve, c.Drops.NIC),
				fRecover(float64(c.RecoverMs), 0))
		}

		// Steady state starts after the last scheduled event has settled.
		steadyFrom := scheduleEndMs(nil, cs) + 2
		baseSteady := steadyMean(base.samples, steadyFrom)
		runSteady := steadyMean(run.samples, steadyFrom)
		ratio := 0.0
		if baseSteady > 0 {
			ratio = runSteady / baseSteady
		}

		// The crash run's SLOs are measured directly against the baseline
		// buckets: the blackout starts at the (unrecorded) crash instant,
		// not at the fail-over generation the detector declares later.
		firstCrashMs := cs.Crashes[0].AtMs
		blackout := crashBlackout(run.samples, base.samples)
		recover := crashRecover(run.samples, base.samples, firstCrashMs)

		// Detection latency and the fail-over/rejoin records themselves.
		detectMs := -1.0
		detached := false
		rejoined := false
		wantRejoin := false
		for _, c := range cs.Crashes {
			if c.RebootMs > 0 {
				wantRejoin = true
			}
		}
		for _, rec := range run.recs {
			switch rec.Action.Kind {
			case reconfig.KindFailover:
				if detectMs < 0 {
					crashAt := opt.warmup() + sim.Time(firstCrashMs)*sim.Millisecond
					detectMs = float64(rec.Applied-crashAt) / 1e6
				}
				if rec.Detached {
					detached = true
				}
			case reconfig.KindRejoin:
				rejoined = true
			}
		}

		v := "OK"
		if ratio < 0.98 || run.unaccounted() != 0 || detectMs < 0 || !detached ||
			recover < 0 || blackout > crashBlackoutBudgetMs || (wantRejoin && !rejoined) {
			v = "FAIL"
		}
		verdict.AddRow(mode.String(),
			fKpps(baseSteady*1e3), fKpps(runSteady*1e3), fRatio(ratio),
			fmt.Sprintf("%d", run.unaccounted()),
			fmt.Sprintf("%.1f", detectMs),
			fmt.Sprintf("%d", blackout), fRecover(float64(recover), 0), v)
	}
	return []*stats.Table{detail, verdict}
}
