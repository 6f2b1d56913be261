package experiments

import (
	"fmt"

	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/reconfig"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// abl-reconfig: hot reconfiguration under load. A fixed-rate UDP flow
// runs through a client/server/spare bed while a generation schedule
// performs a rolling kernel upgrade, a graceful drain of the server
// (containers remapped onto the spare's standby twins) followed by its
// re-add, and steering flips. The properties under test: zero packets
// unaccounted across every generation swap (whole-run conservation over
// the delivery and drop censuses), steady-state throughput within 2% of
// an identical run with no reconfiguration, and bounded blackout and
// recovery after each swap.

func init() {
	register("abl-reconfig", "Hot reconfiguration: generation swaps with convergence SLOs", ablReconfig)
}

// reconfigRate matches abl-chaos: underloaded enough that "steady state"
// is crisp, high enough that a blackout dents per-ms delivery visibly.
const reconfigRate = 100_000

// reconfigTailMs extends per-ms sampling past the measurement window
// (traffic runs 5 ms longer) so steady-state buckets exist even when the
// last scheduled action lands late in the window.
const reconfigTailMs = 4

// reconfigBlackoutBudgetMs is the acceptance bound on any generation's
// blackout window.
const reconfigBlackoutBudgetMs = 2

// defaultReconfigSchedule spreads the full action mix over the window:
// times are in units of windowMs/10 so quick and full runs exercise the
// same shape. Steering flips target the spare — the live receiver after
// the drain — and only exist in Falcon mode.
func defaultReconfigSchedule(windowMs int, falcon bool) *reconfig.Schedule {
	u := windowMs / 10
	if u < 1 {
		u = 1
	}
	on, off := true, false
	acts := []reconfig.Action{
		{Kind: reconfig.KindKernelUpgrade, AtMs: 1 * u, Host: "server", Kernel: "linux-5.4"},
		{Kind: reconfig.KindDrain, AtMs: 2 * u, Host: "server", To: "spare", TransitUs: 200},
		{Kind: reconfig.KindAdd, AtMs: 4 * u, Host: "server"},
	}
	if falcon {
		acts = append(acts,
			reconfig.Action{Kind: reconfig.KindSteerFlip, AtMs: 5 * u, Host: "spare", Enable: &off},
			reconfig.Action{Kind: reconfig.KindSteerFlip, AtMs: 6 * u, Host: "spare", Enable: &on})
	}
	acts = append(acts,
		reconfig.Action{Kind: reconfig.KindRPSFlip, AtMs: 7 * u, Host: "spare", Enable: &off},
		reconfig.Action{Kind: reconfig.KindRPSFlip, AtMs: 8 * u, Host: "spare", Enable: &on})
	return &reconfig.Schedule{Actions: acts}
}

// filterForMode strips steer-flip actions when the bed has no Falcon (a
// custom -reconfig schedule still runs in Con mode that way).
func filterForMode(s *reconfig.Schedule, falcon bool) *reconfig.Schedule {
	if falcon {
		return s
	}
	out := &reconfig.Schedule{}
	for _, a := range s.Actions {
		if a.Kind != reconfig.KindSteerFlip {
			out.Actions = append(out.Actions, a)
		}
	}
	return out
}

// newReconfigBed builds the three-host bed: the standard single-flow
// pair plus the spare migration target carrying the server container's
// standby twin. Falcon mode attaches Falcon to both receive-side hosts.
func newReconfigBed(mode workload.Mode, opt Options) *workload.Testbed {
	cfg := singleFlowConfig(100 * devices.Gbps)
	cfg.Spare = true
	tb := newBed(opt, cfg)
	if mode == workload.ModeFalcon {
		tb.EnableFalconOnServer(falconcore.DefaultConfig(singleFlowFalconCPUs))
		tb.Spare.EnableFalcon(falconcore.DefaultConfig(singleFlowFalconCPUs))
	}
	return tb
}

// reconfigRun is one measured run, disturbed or not. All counters are
// whole-run — nothing is reset mid-flight, so the conservation equation
// closes exactly across every generation swap.
type reconfigRun struct {
	samples   []uint64 // cumulative delivery at warmup + i*1ms
	recs      []*reconfig.GenRecord
	final     overlay.Drops
	sent      uint64
	delivered uint64
	sockDrops uint64
	txPending uint64
}

// unaccounted is the run's conservation residue (overlay.Unaccounted):
// nonzero means the run lost packets silently.
func (r reconfigRun) unaccounted() int64 {
	return overlay.Unaccounted(r.sent, r.delivered, r.sockDrops, r.txPending, r.final)
}

// runDisturbed drives one reconfig bed's fixed-rate UDP flow for warmup
// + window + tail. A non-nil sched is armed on the built bed before
// traffic starts, with the warmup end as its base; nil is the
// undisturbed baseline. The sender's RNG draws are independent of the
// datapath, so baseline and disturbed runs see an identical send
// schedule and their per-ms buckets compare packet-for-packet.
func runDisturbed(mode workload.Mode, opt Options, sched *reconfig.Schedule) reconfigRun {
	tb := newReconfigBed(mode, opt)
	until := opt.warmup() + opt.window() + 5*sim.Millisecond
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, singleFlowAppCore, 1)
	// The spare's twin socket: same overlay IP and port as the primary,
	// live the moment a drain or fail-over lands the container there.
	spareSock := tb.Spare.OpenUDP(tb.ServerCtrs[0].IP, 5001, singleFlowAppCore)

	var mgr *reconfig.Manager
	if sched != nil {
		mgr = reconfig.New(tb.Net, sched)
		if err := mgr.Arm(opt.warmup(), until); err != nil {
			panic(fmt.Sprintf("reconfig bed: %v", err))
		}
	}
	f.SendAtRate(reconfigRate, until)
	msCount := int(opt.window()/sim.Millisecond) + reconfigTailMs
	samples := sampleDelivered(tb, opt.warmup(), 0, msCount, f.Sock, spareSock)

	tb.Run(until)
	// Flush transmit stragglers so the conservation equation closes.
	for i := 0; i < 10 && tb.Client.TxPending() > 0; i++ {
		until += 2 * sim.Millisecond
		tb.Run(until)
	}

	run := reconfigRun{
		samples:   samples,
		final:     tb.Net.Drops(),
		sent:      f.Sent(),
		delivered: f.Sock.Delivered.Value() + spareSock.Delivered.Value(),
		sockDrops: f.Sock.SocketDrops.Value() + spareSock.SocketDrops.Value(),
		txPending: tb.Client.TxPending() + tb.Server.TxPending() + tb.Spare.TxPending(),
	}
	if mgr != nil {
		run.recs = mgr.Records()
	}
	return run
}

// scheduleEndMs is the last ms offset at which the schedule acts,
// counting reboots and heals: steady state is measured after it.
func scheduleEndMs(s *reconfig.Schedule) int {
	last := 0
	for _, a := range s.Actions {
		last = max(last, a.AtMs, a.UntilMs)
	}
	return last
}

// addGenRows analyzes run's generations against the undisturbed base
// run and renders one detail row per generation; show names the three
// census buckets of the drop column.
func addGenRows(detail *stats.Table, mode workload.Mode, opt Options, base, run reconfigRun, show [3]overlay.DropBucket) []reconfig.Convergence {
	conv := reconfig.Analyze(run.samples, base.samples, run.recs, opt.warmup(), run.final)
	for i, rec := range run.recs {
		c := conv[i]
		detail.AddRow(stats.Text(mode.String()), fCount(rec.Gen), stats.Text(c.Kind),
			fCount(c.AtMs), fCount(c.BlackoutMs), fCount(c.LossPkts),
			stats.Num("%.0f/%.0f/%.0f", float64(c.Drops[show[0]]), float64(c.Drops[show[1]]), float64(c.Drops[show[2]])),
			fRecover(float64(c.RecoverMs), 0))
	}
	return conv
}

// steadyRatio compares the disturbed run's steady-state delivery with
// the base run's, both measured from bucket from on.
func steadyRatio(base, run reconfigRun, from int) (baseSteady, runSteady, ratio float64) {
	baseSteady, runSteady = steadyMean(base.samples, from), steadyMean(run.samples, from)
	if baseSteady > 0 {
		ratio = runSteady / baseSteady
	}
	return baseSteady, runSteady, ratio
}

// steadyMean is the mean per-ms delivery over buckets [from, end) — the
// post-reconfig steady state when from clears the last scheduled action.
func steadyMean(samples []uint64, from int) float64 {
	nb := len(samples) - 1
	if from >= nb {
		from = nb - 1
	}
	if from < 0 {
		from = 0
	}
	return float64(samples[nb]-samples[from]) / float64(nb-from)
}

func ablReconfig(opt Options) []*stats.Table {
	windowMs := int(opt.window() / sim.Millisecond)
	detail := &stats.Table{
		Title: "Hot reconfiguration: per-generation convergence SLOs (64B UDP at 100Kpps, 100G)",
		Columns: []string{"mode", "gen", "action", "at(ms)", "blackout(ms)",
			"loss(pkts)", "resolve/nic/backlog", "recover(ms)"},
	}
	verdict := &stats.Table{
		Title: "Hot reconfiguration verdicts: steady state, conservation, drain quiesce",
		Columns: []string{"mode", "base(Kpps)", "reconfig(Kpps)", "ratio",
			"unaccounted", "quiesce(us)", "max-blackout(ms)", "verdict"},
	}
	for _, mode := range []workload.Mode{workload.ModeCon, workload.ModeFalcon} {
		falcon := mode == workload.ModeFalcon
		sched := opt.Reconfig
		if sched == nil {
			sched = defaultReconfigSchedule(windowMs, falcon)
		}
		sched = filterForMode(sched, falcon)

		base := runDisturbed(mode, opt, nil)
		run := runDisturbed(mode, opt, sched)
		conv := addGenRows(detail, mode, opt, base, run,
			[3]overlay.DropBucket{overlay.BucketResolve, overlay.BucketNIC, overlay.BucketBacklog})
		baseSteady, runSteady, ratio := steadyRatio(base, run, scheduleEndMs(sched)+1)

		maxBlackout, recovered, detached, quiesceUs := 0, true, true, -1.0
		for _, c := range conv {
			if c.BlackoutMs > maxBlackout {
				maxBlackout = c.BlackoutMs
			}
			if c.RecoverMs < 0 {
				recovered = false
			}
		}
		for _, rec := range run.recs {
			if rec.Action.Kind == reconfig.KindDrain {
				detached = detached && rec.Detached
				if rec.QuiescedAt >= 0 {
					quiesceUs = float64(rec.QuiescedAt-rec.Applied) / 1e3
				}
			}
		}

		v := "OK"
		if ratio < 0.98 || run.unaccounted() != 0 || !recovered || !detached ||
			maxBlackout > reconfigBlackoutBudgetMs || quiesceUs < 0 {
			v = "FAIL"
		}
		verdict.AddRow(stats.Text(mode.String()),
			fKpps(baseSteady*1e3), fKpps(runSteady*1e3), fRatio(ratio),
			fCount(run.unaccounted()), stats.Num("%.1f", quiesceUs), fCount(maxBlackout), stats.Text(v))
	}
	return []*stats.Table{detail, verdict}
}
