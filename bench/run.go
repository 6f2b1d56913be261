package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"falcon/internal/costmodel"
	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

// Indices into counters.v. Every value is a cumulative public counter;
// nothing in the datapath is reset during a repetition, so window
// metrics are differences between two snapshots and the conservation
// check reads the totals after the drain.
const (
	cEvents    = iota // engine events fired
	cDelivered        // segments consumed by the applications (GRO-expanded)

	// Frame accounting over every host and link.
	cTxMsgs       // messages entering the transmit path
	cTxDrops      // transmit resolve + build drops
	cLinkSent     // frames put on a wire
	cLinkDropped  // frames refused by a full link transmit queue
	cLinkLost     // frames destroyed by link loss
	cNICDrops     // NIC ring and frame drops
	cBacklogDrops // per-CPU backlog drops
	cPathDrops    // drops inside the receive path (decap, bridge)
	cL4Drops      // frames with no bound endpoint
	cSockDrops    // frames refused by a full socket receive queue
	cConsumed     // frames consumed by applications
	cGROMerged    // frames absorbed by NIC GRO
	cInnerMerged  // frames absorbed by inner (gro_cells) GRO
	cTCPRcv       // frames charged tcp_v4_rcv

	// Receive-host CPU model.
	cSoftirqNs
	cNetRX
	cRES
	cHardIRQ
	cDecapped

	// Layer counters.
	cFalconFirst
	cFalconSecond
	cFalconGated
	cCacheHits
	cCacheProbes
	cKVRetries
	cResolveDrops
	cRetransmits
	cAcksSent
	cSegsDelivered
	cFlowsStarted
	cWindows
	cWindowMsgs
	cUsedSlots
	cSlots

	numCounters
)

type counters struct {
	v [numCounters]uint64
	// busy is TotalBusy of every receive-host core, in host then core
	// order.
	busy []int64
}

// snapshot reads every counter of the bed. Call it between engine runs
// (on a cluster every shard is parked then).
func snapshot(b *bed) counters {
	var c counters
	v := &c.v
	v[cEvents] = b.e.Fired()
	for _, h := range b.hosts {
		v[cTxMsgs] += h.TxMsgs.Value()
		v[cTxDrops] += h.TxResolveDrops.Value() + h.TxBuildDrops.Value()
		h.EachLink(func(_ proto.IPv4Addr, l *devices.Link) {
			v[cLinkSent] += l.Sent.Value()
			v[cLinkDropped] += l.Dropped.Value()
			v[cLinkLost] += l.Lost.Value()
		})
		v[cNICDrops] += h.NIC.Drops.Value()
		v[cBacklogDrops] += h.St.Drops.Value()
		v[cPathDrops] += h.Rx.PathDrops.Value()
		v[cL4Drops] += h.L4Drops.Value()
		v[cGROMerged] += h.NIC.GROMerged()
		v[cInnerMerged] += h.Rx.InnerGROMerged()
		v[cTCPRcv] += h.M.Prof.Calls(costmodel.FnTCPRcv)
		v[cDecapped] += h.Rx.Decapped.Value()
		hits := h.RxCacheHits.Value() + h.RxCacheStale.Value()
		v[cCacheHits] += hits
		v[cCacheProbes] += hits + h.RxCacheMisses.Value()
		v[cKVRetries] += h.KVRetries.Value()
		v[cResolveDrops] += h.TxResolveDrops.Value()
		if h.Falcon != nil {
			first, second, gated := h.Falcon.Stats()
			v[cFalconFirst] += first
			v[cFalconSecond] += second
			v[cFalconGated] += gated
		}
	}
	for _, r := range b.rx {
		m := r.h.M
		for core := 0; core < m.NumCores(); core++ {
			v[cSoftirqNs] += uint64(m.Acct.Busy(core, stats.CtxSoftIRQ))
			c.busy = append(c.busy, m.Acct.TotalBusy(core))
		}
		v[cNetRX] += m.IRQ.Total(stats.IRQNetRX)
		v[cRES] += m.IRQ.Total(stats.IRQRES)
		v[cHardIRQ] += m.IRQ.Total(stats.IRQHard)
		for _, sk := range r.socks {
			v[cDelivered] += sk.Delivered.Value()
			v[cConsumed] += sk.Consumed.Value()
			v[cSockDrops] += sk.SocketDrops.Value()
		}
	}
	for _, cn := range b.conns {
		v[cRetransmits] += cn.Retransmits.Value()
		v[cAcksSent] += cn.AcksSent.Value()
		v[cSegsDelivered] += cn.SegsDelivered.Value()
	}
	if b.ol != nil {
		v[cFlowsStarted] = b.ol.Started()
	}
	if cl, ok := b.e.(*sim.Cluster); ok {
		st := cl.Stats()
		v[cWindows], v[cWindowMsgs] = st.Windows, st.Msgs
		v[cUsedSlots], v[cSlots] = st.UsedSlots, st.Slots
	}
	return c
}

// sub returns c - base.
func (c counters) sub(base counters) counters {
	d := counters{busy: make([]int64, len(c.busy))}
	for i := range c.v {
		d.v[i] = c.v[i] - base.v[i]
	}
	for i := range c.busy {
		d.busy[i] = c.busy[i] - base.busy[i]
	}
	return d
}

// lostBelowL4 sums the drops before L4: tx resolve/build, link queue and
// loss, NIC, backlog and receive path.
func (c counters) lostBelowL4() uint64 {
	v := &c.v
	return v[cTxDrops] + v[cLinkDropped] + v[cLinkLost] + v[cNICDrops] +
		v[cBacklogDrops] + v[cPathDrops]
}

// dropped sums every counted drop, from the transmit path to the socket.
func (c counters) dropped() uint64 {
	return c.lostBelowL4() + c.v[cL4Drops] + c.v[cSockDrops]
}

// ledger is packet conservation in frames, read from public counters
// once the datapath has quiesced: every message that entered a transmit
// path was dropped below L4, absorbed by GRO into a super-packet that
// went on, or reached L4.
type ledger struct {
	sent    uint64 // messages entering a transmit path
	lost    uint64 // dropped before L4
	merged  uint64 // absorbed by NIC or inner GRO
	reached uint64 // reached L4
}

// conservation builds the ledger. L4 arrivals are counted where each
// protocol terminates: UDP frames at the socket (consumed or refused)
// or as unbound drops; TCP frames where tcp_v4_rcv is charged, since
// pure ACKs and duplicate segments end inside the transport, which
// counts neither.
func conservation(c counters, tcp bool) ledger {
	v := &c.v
	l := ledger{
		sent:    v[cTxMsgs],
		lost:    c.lostBelowL4(),
		merged:  v[cGROMerged] + v[cInnerMerged],
		reached: v[cConsumed] + v[cSockDrops] + v[cL4Drops],
	}
	if tcp {
		l.reached = v[cTCPRcv]
	}
	return l
}

func (l ledger) check() error {
	if l.sent != l.lost+l.merged+l.reached {
		return fmt.Errorf("conservation: sent %d != lost %d + gro-merged %d + reached-L4 %d (off by %d)",
			l.sent, l.lost, l.merged, l.reached, int64(l.sent)-int64(l.lost+l.merged+l.reached))
	}
	return nil
}

// repOpts selects how one repetition runs.
type repOpts struct {
	window sim.Time
	serial bool // force the serial engine (mesh speedup reference)
	traced bool // attach the stage tracer and tick sampler, profile the CPU
}

// rep is one repetition: build, warm up, measure the window, drain,
// check conservation.
type rep struct {
	wall time.Duration // host time of the window phase
	cpu  time.Duration // process user+system CPU time of the window phase
	win  counters      // counter deltas over the window
	lat  latency       // one-way latency of segments consumed in the window
	// Runtime deltas over the window, and HeapInuse after a GC at its end.
	mallocs, allocBytes, gcs, heapInuse uint64
	peakFlows                           int // open-loop live-flow high-water mark
	ledger                              ledger
	tr                                  *tracer
	profile                             []byte // gzipped pprof CPU profile of the window (traced only)
	err                                 error
}

func runRep(w *workload, seed uint64, o repOpts) rep {
	runtime.GC()
	until := warmup + o.window
	b := w.build(seed, until, o.serial)
	var r rep
	if o.traced {
		r.tr = attachTracer(b, warmup, until)
	}
	b.e.RunUntil(warmup)
	// Recorders are sized from the warm-up delivery rate so that
	// recording allocates nothing inside the window.
	var recs []*latencyRecorder
	for _, x := range b.rx {
		for _, sk := range x.socks {
			n := sk.Delivered.Value() * uint64(o.window) / uint64(warmup)
			rec := &latencyRecorder{from: warmup, to: until, ns: make([]int64, 0, n+n/4+1024)}
			sk.OnDeliver = rec.record
			recs = append(recs, rec)
		}
	}
	c0 := snapshot(b)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	var prof bytes.Buffer
	if o.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.err = fmt.Errorf("start CPU profile: %w", err)
		}
	}
	start := time.Now()
	b.e.RunUntil(until)
	r.wall = time.Since(start)
	if o.traced && r.err == nil {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	r.win = snapshot(b).sub(c0)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcs = uint64(m1.NumGC - m0.NumGC)
	r.lat = summarize(recs)
	// Drop the recorders so the heap reading below is the simulator's alone.
	for _, x := range b.rx {
		for _, sk := range x.socks {
			sk.OnDeliver = nil
		}
	}
	if b.ol != nil {
		r.peakFlows = b.ol.Peak()
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heapInuse = m1.HeapInuse

	for _, c := range b.conns {
		c.Close()
	}
	if err := drain(b); err != nil && r.err == nil {
		r.err = err
	}
	r.ledger = conservation(snapshot(b), len(b.conns) > 0)
	if err := r.ledger.check(); err != nil && r.err == nil {
		r.err = err
	}
	return r
}

// drain runs the simulation past the window until every host's datapath
// is empty and no frame is on a wire. Generators have stopped by now.
func drain(b *bed) error {
	for i := 0; i < 100; i++ {
		if quiesced(b) {
			return nil
		}
		b.e.RunUntil(b.e.Now() + sim.Millisecond)
	}
	return fmt.Errorf("datapath still busy 100 ms after the window")
}

func quiesced(b *bed) bool {
	for _, h := range b.hosts {
		if !h.Quiesced() {
			return false
		}
		idle := true
		h.EachLink(func(_ proto.IPv4Addr, l *devices.Link) { idle = idle && l.QueueLen() == 0 })
		if !idle {
			return false
		}
	}
	return true
}

// latencyRecorder collects the exact one-way latency of every segment an
// application consumes inside the window. It hangs off Socket.OnDeliver,
// which runs after the socket's own accounting and schedules nothing.
// The origin is the packet's send time (the open-loop due time), else
// the wire time, as the socket's own histogram uses; a GRO super-packet
// contributes one sample per segment. One recorder per socket keeps
// sharded runs free of shared state.
type latencyRecorder struct {
	from, to sim.Time
	ns       []int64
}

func (l *latencyRecorder) record(s *skb.SKB) {
	if s.Delivered <= l.from || s.Delivered > l.to {
		return
	}
	origin := s.WireTime
	if s.SendTime != 0 {
		origin = s.SendTime
	}
	for i := max(s.Segs, 1); i > 0; i-- {
		l.ns = append(l.ns, int64(s.Delivered-origin))
	}
}

// latency is the exact percentile summary of the recorded samples.
type latency struct {
	n              int
	p50, p99, p999 int64
}

func summarize(recs []*latencyRecorder) latency {
	var all []int64
	for _, r := range recs {
		all = append(all, r.ns...)
	}
	slices.Sort(all)
	rank := func(q float64) int64 {
		if len(all) == 0 {
			return 0
		}
		return all[int(math.Ceil(q*float64(len(all))))-1]
	}
	return latency{n: len(all), p50: rank(0.50), p99: rank(0.99), p999: rank(0.999)}
}

// sameModel reports whether two repetitions of one seed produced the same
// event count and the same simulated results.
func sameModel(a, b rep) bool {
	return a.win.v == b.win.v && slices.Equal(a.win.busy, b.win.busy) &&
		a.lat == b.lat && a.ledger == b.ledger
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only a bad pointer makes it fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupTimes builds the bed n times, discarding each, and returns the
// build times in seconds.
func setupTimes(w *workload, seed uint64, window sim.Time, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		runtime.GC()
		start := time.Now()
		w.build(seed, warmup+window, false)
		out[i] = time.Since(start).Seconds()
	}
	return out
}
