package workload

import (
	"falcon/internal/overlay"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
)

// Result is one measured window.
type Result struct {
	Window    sim.Time
	Delivered uint64
	PPS       float64
	Latency   stats.Summary
	// LatencyHist is the merged per-socket latency histogram behind
	// Latency, kept so callers can merge windows into aggregate tail
	// curves (p99.9 needs the buckets, not the summary).
	LatencyHist *stats.Histogram

	// Drop accounting on the server side.
	NICDrops, BacklogDrops, SocketDrops uint64

	// CoreBusy is per-core utilization [0,1] on the server during the
	// window; CoreSoftirq/CoreTask the context shares.
	CoreBusy, CoreSoftirq, CoreTask []float64

	// IRQ counts on the server during the window.
	HardIRQs, NetRX, RES uint64
}

// GbpsFor converts the packet rate to goodput for a payload size.
func (r Result) GbpsFor(payloadBytes int) float64 {
	return r.PPS * float64(payloadBytes) * 8 / 1e9
}

// MeasureWindow advances to `warmup`, runs one window, and collects
// server-side metrics plus the union of the given sockets' delivery
// stats. Counters never rewind, so each count is its end read minus its
// start read; only the CPU ledgers and the sockets' latency histograms
// start a fresh window at warmup.
func MeasureWindow(tb *Testbed, socks []*socket.Socket, warmup, window sim.Time) Result {
	tb.Run(warmup)
	for _, h := range tb.Hosts() {
		h.M.ResetMeasurement()
	}
	for _, sk := range socks {
		sk.Latency.Reset()
	}
	start := readCounts(tb.Server, socks)
	tb.Run(warmup + window)

	res := readCounts(tb.Server, socks)
	res.Window = window
	res.Delivered -= start.Delivered
	res.SocketDrops -= start.SocketDrops
	res.NICDrops -= start.NICDrops
	res.BacklogDrops -= start.BacklogDrops
	res.HardIRQs -= start.HardIRQs
	res.NetRX -= start.NetRX
	res.RES -= start.RES

	lat := stats.NewHistogram()
	for _, sk := range socks {
		lat.Merge(sk.Latency)
	}
	res.PPS = stats.Rate(res.Delivered, int64(window))
	res.Latency = lat.Summarize()
	res.LatencyHist = lat

	srv := tb.Server
	n := srv.M.NumCores()
	res.CoreBusy = make([]float64, n)
	res.CoreSoftirq = make([]float64, n)
	res.CoreTask = make([]float64, n)
	for c := 0; c < n; c++ {
		res.CoreBusy[c] = srv.M.Acct.Utilization(c)
		res.CoreSoftirq[c] = srv.M.Acct.ContextShare(c, stats.CtxSoftIRQ)
		res.CoreTask[c] = srv.M.Acct.ContextShare(c, stats.CtxTask)
	}
	return res
}

// readCounts reads every counter MeasureWindow reports, as totals since
// boot.
func readCounts(srv *overlay.Host, socks []*socket.Socket) Result {
	var r Result
	for _, sk := range socks {
		r.Delivered += sk.Delivered.Value()
		r.SocketDrops += sk.SocketDrops.Value()
	}
	r.NICDrops = srv.NIC.Drops.Value()
	r.BacklogDrops = srv.St.Drops.Value()
	r.HardIRQs = srv.M.IRQ.Total(stats.IRQHard)
	r.NetRX = srv.M.IRQ.Total(stats.IRQNetRX)
	r.RES = srv.M.IRQ.Total(stats.IRQRES)
	return r
}

// SystemUtilization returns the mean busy fraction across server cores.
func (r Result) SystemUtilization() float64 {
	if len(r.CoreBusy) == 0 {
		return 0
	}
	s := 0.0
	for _, u := range r.CoreBusy {
		s += u
	}
	return s / float64(len(r.CoreBusy))
}
