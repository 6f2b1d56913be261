package experiments

import (
	"fmt"

	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

func init() {
	register("abl-tail", "Tail latency under open-loop overload: 0.5x-1.2x capacity, Con vs Falcon", ablTail)
}

// abl-tail parameters. The sweep offers heavy-tailed open-loop load at
// fixed fractions of the vanilla overlay's closed-loop capacity, so the
// two modes see identical arrival schedules and the tail curves are
// directly comparable.
const (
	tailPayload = 256
	tailLink    = 100 * devices.Gbps
	// tailMeanPkts / tailAlpha shape the Pareto flow sizes (mean 12
	// packets, infinite variance — the heavy tail is the point).
	tailAlpha    = 1.5
	tailMeanPkts = 12.0
	// tailFlowRate is each live flow's send rate; low enough that the
	// population holds many flows concurrently live.
	tailFlowRate = 20_000.0
	// MMPP burst shape: equal expected sojourns, 0.5x/1.5x the target
	// rate, so the long-run offered load still matches the factor.
	tailSojourn = 500 * sim.Microsecond

	// SLO constants (the verdict table). The p99 budget applies at the
	// 0.5x underloaded point; the knee — the first load factor where
	// delivered drops below tailKneeFrac of offered — must sit above
	// 0.9x for both modes.
	tailP99BudgetNs = 400_000 // 400µs
	tailKneeFrac    = 0.90
)

// tailFactors returns the offered-load sweep (fractions of capacity).
func tailFactors(quick bool) []float64 {
	if quick {
		return []float64{0.5, 0.9, 1.2}
	}
	return []float64{0.5, 0.7, 0.9, 1.0, 1.1, 1.2}
}

// tailPoint is one measured sweep point. sentPPS is the population's
// realized send rate inside the window — the knee denominator. The
// nominal offered rate overstates a heavy-tailed population's
// finite-window emission (a Pareto sample mean converges from below
// when the variance is infinite), so delivered/nominal would read as
// loss even on a drop-free path.
type tailPoint struct {
	factor  float64
	offered float64
	sentPPS float64
	res     workload.Result
}

// runTailPoint drives one open-loop MMPP/Pareto population at the given
// offered rate against one mode's testbed and measures the window.
func runTailPoint(mode workload.Mode, opt Options, offered float64) (*workload.Testbed, tailPoint) {
	tb := newSingleFlowBed(mode, opt, tailLink, false)
	until := opt.warmup() + opt.window() + 5*sim.Millisecond
	flowsPerSec := offered / tailMeanPkts
	ol := tb.StartOpenLoop(workload.OpenLoopConfig{
		Arrivals: &workload.MMPP2{
			CalmRate: 0.5 * flowsPerSec, BurstRate: 1.5 * flowsPerSec,
			MeanCalm: tailSojourn, MeanBurst: tailSojourn,
		},
		FlowSize:   workload.Pareto{Xm: tailMeanPkts * (tailAlpha - 1) / tailAlpha, Alpha: tailAlpha},
		PacketSize: tailPayload,
		FlowRate:   tailFlowRate,
		Ports:      2,
		SendCores:  []int{2, 3},
		AppCore:    singleFlowAppCore,
		Ctr:        1,
	}, until)
	var sent0, sent1 uint64
	tb.E.At(opt.warmup(), func() { sent0 = ol.Sent() })
	tb.E.At(opt.warmup()+opt.window(), func() { sent1 = ol.Sent() })
	res := workload.MeasureWindow(tb, ol.Socks, opt.warmup(), opt.window())
	return tb, tailPoint{
		offered: offered,
		sentPPS: stats.Rate(sent1-sent0, int64(opt.window())),
		res:     res,
	}
}

// ablTail sweeps offered load from well under to past capacity and
// reports vanilla-vs-Falcon percentile curves plus an SLO verdict
// table: the tail budget when underloaded, and where the goodput knee
// sits relative to capacity.
func ablTail(opt Options) []*stats.Table {
	// Capacity reference: the vanilla overlay's closed-loop stress rate
	// (the same estimate Fig 12(c) sweeps against). Both modes sweep
	// fractions of this one number so their arrival schedules match.
	capacity := udpStress(workload.ModeCon, opt, tailLink, tailPayload).PPS

	detail := &stats.Table{
		Title: fmt.Sprintf("Ablation: open-loop tail sweep, Pareto/MMPP %dB flows, capacity %s Kpps (Con closed-loop)",
			tailPayload, fKpps(capacity)),
		Columns: []string{"load", "mode", "offered(Kpps)", "sent(Kpps)", "delivered(Kpps)",
			"p50(us)", "p99(us)", "p99.9(us)", "del/sent"},
	}
	modes := []workload.Mode{workload.ModeCon, workload.ModeFalcon}
	points := map[workload.Mode][]tailPoint{}
	for _, factor := range tailFactors(opt.Quick) {
		offered := factor * capacity
		for _, mode := range modes {
			_, pt := runTailPoint(mode, opt, offered)
			pt.factor = factor
			points[mode] = append(points[mode], pt)
			s := pt.res.Latency
			detail.AddRow(fRatio(factor), stats.Text(mode.String()), fKpps(offered), fKpps(pt.sentPPS),
				fKpps(pt.res.PPS), fUs(s.P50), fUs(s.P99), fUs(s.P999),
				stats.Num("%.2f", pt.res.PPS/max(pt.sentPPS, 1)))
		}
	}

	verdict := &stats.Table{
		Title: fmt.Sprintf("Tail SLO verdicts: p99@0.5x <= %dus, knee > %.1fx, tail monotone",
			tailP99BudgetNs/1000, tailKneeFrac),
		Columns: []string{"mode", "p99@0.5x(us)", "knee", "p99@max/p99@0.5x", "verdict"},
	}
	for _, mode := range modes {
		pts := points[mode]
		base, last := pts[0], pts[len(pts)-1]
		knee := stats.Text("none")
		kneeOK := true
		for _, pt := range pts {
			if pt.res.PPS < tailKneeFrac*pt.sentPPS {
				knee = fRatio(pt.factor)
				kneeOK = pt.factor > 0.9
				break
			}
		}
		ok := kneeOK &&
			base.res.Latency.P99 <= tailP99BudgetNs &&
			last.res.Latency.P99 >= base.res.Latency.P99
		v := "OK"
		if !ok {
			v = "FAIL"
		}
		verdict.AddRow(stats.Text(mode.String()), fUs(base.res.Latency.P99), knee,
			fRatio(float64(last.res.Latency.P99)/max(float64(base.res.Latency.P99), 1)), stats.Text(v))
	}
	return []*stats.Table{detail, verdict}
}
