package experiments

import (
	"falcon/internal/devices"
	"falcon/internal/faults"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// abl-chaos: the robustness harness. Every scenario schedules one fault
// window in the middle of the measurement window and drives the same
// fixed-rate UDP flow through Host / Con / Falcon. The property under
// test is the paper's never-worse claim (Figs. 14-15) extended to
// faulty conditions: Falcon with health tracking must stay within 2% of
// the vanilla overlay under every shipped fault, and delivery must
// recover within a bounded time of the fault clearing.

func init() {
	register("abl-chaos", "Robustness: fault injection + graceful degradation", ablChaos)
}

// chaosRate is the offered load: high enough that a wedged core visibly
// dents per-ms delivery, low enough that the healthy system is not
// saturated (so "recovered" has a crisp meaning).
const chaosRate = 100_000

// chaosScenario is one named fault plan, built against a concrete
// testbed with the fault window [at, at+dur].
type chaosScenario struct {
	key  string
	desc string
	plan func(tb *workload.Testbed, at, dur sim.Time) faults.Plan
}

// chaosScenarios ships the fault matrix: wire, NIC, CPU and
// control-plane impairments, plus the empty control plan.
func chaosScenarios() []chaosScenario {
	item := faults.Single
	return []chaosScenario{
		{"none", "control: empty plan",
			func(tb *workload.Testbed, at, dur sim.Time) faults.Plan {
				return faults.Plan{Name: "none"}
			}},
		{"link-loss", "5% frame loss on the inter-host wire",
			func(tb *workload.Testbed, at, dur sim.Time) faults.Plan {
				return item(at, dur, &faults.LinkLossBurst{
					Link: tb.Client.LinkTo(workload.ServerIP), Rate: 0.05})
			}},
		{"link-jitter", "30us uniform jitter on the inter-host wire",
			func(tb *workload.Testbed, at, dur sim.Time) faults.Plan {
				return item(at, dur, &faults.LinkJitterBurst{
					Link: tb.Client.LinkTo(workload.ServerIP), Jitter: 30 * sim.Microsecond})
			}},
		{"ring-shrink", "server rx rings capped at 2 slots",
			func(tb *workload.Testbed, at, dur sim.Time) faults.Plan {
				return item(at, dur, &faults.RingShrink{NIC: tb.Server.NIC, Limit: 2})
			}},
		{"core-stall", "silent stall of FALCON_CPU 4",
			func(tb *workload.Testbed, at, dur sim.Time) faults.Plan {
				return item(at, dur, &faults.CoreStall{M: tb.Server.M, Cores: []int{4}})
			}},
		{"cpu-offline", "hotplug removal of FALCON_CPUs 3+4 (below floor)",
			func(tb *workload.Testbed, at, dur sim.Time) faults.Plan {
				return item(at, dur, &faults.CoreOffline{M: tb.Server.M, Cores: []int{3, 4}})
			}},
		{"kv-flaky", "KV lookups +50us, 30% transient failure",
			func(tb *workload.Testbed, at, dur sim.Time) faults.Plan {
				return item(at, dur, &faults.KVFlaky{
					KV: tb.Net.KV, Latency: 50 * sim.Microsecond, FailRate: 0.3})
			}},
		{"noisy-neighbor", "60% softirq antagonist on all FALCON_CPUs",
			func(tb *workload.Testbed, at, dur sim.Time) faults.Plan {
				return item(at, dur, &faults.NoisyNeighbor{
					M: tb.Server.M, Cores: []int{3, 4, 5}, Utilization: 0.6})
			}},
	}
}

// chaosOutcome is one (scenario, mode) run.
type chaosOutcome struct {
	Res workload.Result
	// RecoverMs is how long after the fault cleared per-ms delivery
	// returned to >=80% of the pre-fault baseline (-1: not within the
	// window; 0 for the control scenario).
	RecoverMs float64
	// Drops aggregates every loss class, including resolution drops.
	Drops uint64
	// KVRetries counts the client's backoff retries of transiently
	// failed KV lookups during the window.
	KVRetries uint64
	// Falcon degradation observables (zero for Host/Con).
	Rerouted, Fallbacks uint64
	DegradedMs          float64
}

// runChaosScenario builds the standard single-flow bed, installs the
// scenario's plan over the middle half of the measurement window, and
// measures one fixed-rate UDP window with per-ms delivery sampling.
func runChaosScenario(mode workload.Mode, opt Options, sc chaosScenario) chaosOutcome {
	tb := newSingleFlowBed(mode, opt, 100*devices.Gbps, false)
	// Fault window: [warmup + window/4, warmup + window/2].
	fStart := opt.window() / 4
	fDur := opt.window() / 4
	in := faults.NewInjector(tb.E)
	in.Install(sc.plan(tb, opt.warmup()+fStart, fDur))

	until := opt.warmup() + opt.window() + 5*sim.Millisecond
	var f *workload.UDPFlow
	if mode == workload.ModeHost {
		f = tb.NewUDPFlow(nil, workload.ServerIP, 7000, 5001, 64, 2, singleFlowAppCore, 1)
	} else {
		f = tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, singleFlowAppCore, 1)
	}
	f.SendAtRate(chaosRate, until)

	// Per-ms delivery snapshots across the measurement window. Bucket 0
	// is read when the window starts.
	samples := sampleDelivered(tb, opt.warmup(), 1, int(opt.window()/sim.Millisecond), f.Sock)

	tb.Run(opt.warmup())
	samples[0] = f.Sock.Delivered.Value()
	resolveDrops, kvRetries := tb.Client.TxResolveDrops.Value(), tb.Client.KVRetries.Value()
	res := workload.MeasureWindow(tb, []*socket.Socket{f.Sock}, opt.warmup(), opt.window())
	out := chaosOutcome{
		Res: res,
		Drops: res.NICDrops + res.BacklogDrops + res.SocketDrops +
			tb.Client.TxResolveDrops.Value() - resolveDrops,
		KVRetries: tb.Client.KVRetries.Value() - kvRetries,
	}
	if sc.key != "none" {
		out.RecoverMs = chaosRecoveryMs(samples, fStart, fStart+fDur)
	}
	if fal := tb.Server.Falcon; fal != nil {
		out.Rerouted = fal.Faults.Rerouted.Value()
		out.Fallbacks = fal.Faults.Fallbacks.Value()
		out.DegradedMs = float64(fal.Faults.DegradedNs.Value()) / 1e6
	}
	return out
}

// chaosRecoveryMs locates the first per-ms bucket at or after the fault
// end whose delivery is back to >=80% of the pre-fault per-ms mean, and
// returns its distance from the fault end in ms (-1: none in window).
// Offsets are relative to the start of the measurement window.
func chaosRecoveryMs(samples []uint64, fStart, fEnd sim.Time) float64 {
	msCount := len(samples) - 1
	delta := func(i int) float64 { return float64(samples[i] - samples[i-1]) }
	base, n := 0.0, 0
	for i := 1; i <= msCount; i++ {
		if sim.Time(i)*sim.Millisecond <= fStart {
			base += delta(i)
			n++
		}
	}
	if n == 0 || base == 0 {
		return 0
	}
	base /= float64(n)
	for i := 1; i <= msCount; i++ {
		if sim.Time(i-1)*sim.Millisecond < fEnd {
			continue
		}
		if delta(i) >= 0.8*base {
			return float64(sim.Time(i)*sim.Millisecond-fEnd) / 1e6
		}
	}
	return -1
}

func ablChaos(opt Options) []*stats.Table {
	detail := &stats.Table{
		Title: "Robustness: 64B UDP at 100Kpps through fault windows (100G)",
		Columns: []string{"scenario", "mode", "delivered(Kpps)", "p99(us)", "drops",
			"kv-retry", "recover(ms)", "rerouted", "fallback", "degraded(ms)"},
	}
	verdict := &stats.Table{
		Title:   "Robustness verdicts: Falcon vs vanilla overlay under faults",
		Columns: []string{"scenario", "Con(Kpps)", "Falcon(Kpps)", "Falcon/Con", "Falcon recover(ms)", "verdict"},
	}
	for _, sc := range chaosScenarios() {
		var con, fal chaosOutcome
		for _, mode := range []workload.Mode{workload.ModeHost, workload.ModeCon, workload.ModeFalcon} {
			out := runChaosScenario(mode, opt, sc)
			switch mode {
			case workload.ModeCon:
				con = out
			case workload.ModeFalcon:
				fal = out
			}
			detail.AddRow(stats.Text(sc.key), stats.Text(mode.String()), fKpps(out.Res.PPS), fUs(out.Res.Latency.P99),
				fCount(out.Drops), fCount(out.KVRetries), fRecover(out.RecoverMs, 1),
				fCount(out.Rerouted), fCount(out.Fallbacks), stats.Num("%.1f", out.DegradedMs))
		}
		ratio := 0.0
		if con.Res.PPS > 0 {
			ratio = fal.Res.PPS / con.Res.PPS
		}
		v := "OK"
		if ratio < 0.98 || fal.RecoverMs < 0 {
			v = "FAIL"
		}
		verdict.AddRow(stats.Text(sc.key), fKpps(con.Res.PPS), fKpps(fal.Res.PPS),
			fRatio(ratio), fRecover(fal.RecoverMs, 1), stats.Text(v))
	}
	return []*stats.Table{detail, verdict}
}
