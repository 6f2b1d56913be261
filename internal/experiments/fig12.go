package experiments

import (
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

func init() {
	register("fig12", "Per-packet latency: UDP/TCP, underloaded/overloaded", fig12)
}

// fig12: the four latency panels. (a) underloaded UDP 16B, (b)
// underloaded TCP 4K (GRO splitting matters), (c) overloaded UDP 16B,
// (d) overloaded TCP 16B. Paper: Falcon approaches native latency and
// the gain is largest in overloaded runs where queueing dominates.
func fig12(opt Options) []*stats.Table {
	link := 100 * devices.Gbps
	modes := []workload.Mode{workload.ModeHost, workload.ModeCon, workload.ModeFalcon}
	var tables []*stats.Table

	addRows := func(t *stats.Table, mode workload.Mode, s stats.Summary) {
		t.AddRow(stats.Text(mode.String()), fUs(int64(s.Mean)), fUs(s.P50), fUs(s.P90), fUs(s.P99), fUs(s.P999))
	}
	newT := func(title string) *stats.Table {
		return &stats.Table{Title: title,
			Columns: []string{"mode", "avg(us)", "p50", "p90", "p99", "p99.9"}}
	}

	// (a) underloaded UDP 16B at a gentle fixed rate.
	ta := newT("Fig 12(a): underloaded UDP 16B latency")
	for _, m := range modes {
		r := udpFixedRate(m, opt, link, 16, 100_000)
		addRows(ta, m, r.Latency)
	}
	tables = append(tables, ta)

	// (b) underloaded TCP 4K: paced messages; GRO splitting active for
	// Falcon.
	tb := newT("Fig 12(b): underloaded TCP 4K latency")
	for _, m := range modes {
		s := tcpPaced(m, opt, link, 4096, 25*sim.Microsecond)
		addRows(tb, m, s)
	}
	tables = append(tables, tb)

	// (c) overloaded UDP 16B: each mode is driven to ~90% of its own
	// maximum rate ("driven to its respective maximum throughput before
	// packet drop occurs"), so latency reflects near-saturation queueing
	// rather than full queues.
	// All modes receive the same high rate — just under the host's
	// capacity. It overloads the vanilla overlay's serialized core
	// (queues saturate), while Falcon's pipelined stages absorb it.
	tc := newT("Fig 12(c): overloaded UDP 16B latency (common high rate)")
	hostCap := udpStress(workload.ModeHost, opt, link, 16).PPS
	for _, m := range modes {
		r := udpFixedRate(m, opt, link, 16, 0.8*hostCap)
		addRows(tc, m, r.Latency)
	}
	tables = append(tables, tc)

	// (d) overloaded TCP 16B: continuous bulk with small messages.
	td := newT("Fig 12(d): overloaded TCP 16B latency")
	for _, m := range modes {
		r := tcpBulk(m, opt, link, 16, 1, false)
		addRows(td, m, r.Latency)
	}
	tables = append(tables, td)
	return tables
}

// tcpPaced measures latency of a TCP flow paced below saturation.
func tcpPaced(mode workload.Mode, opt Options, link float64, msgSize int, gap sim.Time) stats.Summary {
	tb := newSingleFlowBed(mode, opt, link, true)
	c := mustDial(tb, newTCPConfig(tb, mode, msgSize, 0))
	until := opt.warmup() + opt.window() + 5*sim.Millisecond
	e := tb.Client.E
	var pace sim.Slots
	tick := func(int) {
		if e.Now() >= until {
			return
		}
		c.Send(1)
		pace.Set(0, e.Now()+gap)
	}
	pace = e.NewSlots(1, tick)
	tick(0)
	res := workload.MeasureWindow(tb, []*socket.Socket{c.Socket()}, opt.warmup(), opt.window())
	c.Close()
	return res.Latency
}
