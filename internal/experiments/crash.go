package experiments

import (
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
// timeout (2ms) + two sick scans (2 x 0.5ms) + remap transit (0.2ms) +
// heartbeat age at death (<= one 1ms tick), rounded to whole buckets.
const crashBlackoutBudgetMs = 4

// defaultCrashSchedule kills the server early enough that detection,
// fail-over and reboot all land inside the window: times are in units of
// windowMs/10 so quick and full runs exercise the same shape.
func defaultCrashSchedule(windowMs int) *reconfig.Schedule {
	u := max(windowMs/10, 1)
	return &reconfig.Schedule{Actions: []reconfig.Action{
		{Kind: reconfig.KindCrash, AtMs: 2 * u, Host: "server", To: "spare", UntilMs: 6 * u},
	}}
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
		sched := opt.Reconfig
		if sched == nil {
			sched = defaultCrashSchedule(windowMs)
		}
		sched = filterForMode(sched, mode == workload.ModeFalcon)

		base := runDisturbed(mode, opt, nil)
		run := runDisturbed(mode, opt, sched)
		addGenRows(detail, mode, opt, base, run,
			[3]overlay.DropBucket{overlay.BucketCrash, overlay.BucketResolve, overlay.BucketNIC})
		// Steady state starts after the last scheduled event has settled.
		baseSteady, runSteady, ratio := steadyRatio(base, run, scheduleEndMs(sched)+2)

		// The crash run's SLOs are measured directly against the baseline
		// buckets: the blackout starts at the (unrecorded) crash instant,
		// not at the fail-over generation the detector declares later. A
		// schedule without a crash starts at its first action.
		crashes, wantRejoin, firstCrashMs := false, false, 0
		for _, a := range sched.Actions {
			if a.Kind == reconfig.KindCrash {
				if !crashes {
					firstCrashMs = a.AtMs
				}
				crashes = true
				wantRejoin = wantRejoin || a.UntilMs > 0
			}
		}
		if !crashes && len(sched.Actions) > 0 {
			firstCrashMs = sched.Actions[0].AtMs
		}
		blackout := crashBlackout(run.samples, base.samples)
		recover := crashRecover(run.samples, base.samples, firstCrashMs)

		// Detection latency and the fail-over/rejoin records themselves.
		detectMs := -1.0
		detached := false
		rejoined := false
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
		if ratio < 0.98 || run.unaccounted() != 0 || crashes && (detectMs < 0 || !detached) ||
			recover < 0 || blackout > crashBlackoutBudgetMs || (wantRejoin && !rejoined) {
			v = "FAIL"
		}
		verdict.AddRow(stats.Text(mode.String()),
			fKpps(baseSteady*1e3), fKpps(runSteady*1e3), fRatio(ratio),
			fCount(run.unaccounted()), stats.Num("%.1f", detectMs),
			fCount(blackout), fRecover(float64(recover), 0), stats.Text(v))
	}
	return []*stats.Table{detail, verdict}
}
