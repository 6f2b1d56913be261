package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
)

// Cluster is a conservative parallel discrete-event engine (PDES,
// DESIGN.md §6). The topology is partitioned into logical processes
// (LPs) — one timing-wheel Engine per shard, each owning the complete
// state of the hosts mapped to it — plus a coordinator-owned global
// engine for control-plane events (experiment samplers, fault windows,
// audit sweeps).
//
// Synchronization is a safe-horizon window barrier. Each cross-shard
// link registers its minimum sender→receiver latency (serialization of
// an empty frame + propagation delay) as a lookahead bound — per
// source endpoint via PostSource.Bound, or globally via Bound. Each
// iteration the coordinator computes the earliest pending LP event t
// and a window end E such that no cross-shard frame sent during [t, E]
// can arrive at or before E: with adaptive horizons (the default) E is
// the minimum over busy shards of (next event + that shard's minimum
// outgoing lookahead) - 1, which degenerates to the classic uniform
// [t, t+L-1] when every shard is busy and every pairwise bound equals
// the global minimum L, and widens — often dramatically — when
// cross-shard senders are idle or their pairwise bounds exceed L.
// Frames sent across a shard boundary during the window therefore
// never preempt a running LP: they park in per-source outboxes and the
// coordinator drains them into the destination engines at the barrier.
// The widening is provably safe (DESIGN.md §6) and additionally
// *checked*: Post panics if an arrival ever lands inside the window
// that produced it.
//
// Determinism, for any shard count and worker count:
//   - LPs share one construction-time root RNG (NewShared), so every
//     Fork during single-threaded topology construction consumes the
//     root stream exactly as the serial engine would. Runtime draws
//     come only from forks owned by a single LP.
//   - The barrier drain schedules cross-shard messages in (arrival,
//     send time, source id, per-source sequence) order, so
//     same-nanosecond deliveries from different shards always
//     tie-break identically.
//   - Window boundaries do not influence the merge: two runs that
//     window the same event set differently still drain every message
//     before its arrival time with the same key order, so adaptive
//     and fixed horizons produce byte-identical schedules.
//   - Global events at time g run with every LP parked at g, before
//     any LP event at g — matching the serial engine, where control
//     events are construction-scheduled and hence carry lower
//     sequence numbers than the runtime-scheduled datapath events.
type Cluster struct {
	root    *Rand
	global  *Engine // coordinator control queue; its clock is Now()
	lps     []*Engine
	look    Time // global lookahead; 0 until a cross-shard link bounds it
	workers int

	outbox []outQ  // per-PostSource send buffers, drained at barriers
	act    [][]int // per-shard ids of outboxes that went non-empty
	actScr []int   // coordinator merge scratch over active outbox ids
	nsrc   int     // PostSource ids handed out (construction order)

	// Per-shard outgoing-lookahead state for adaptive horizons.
	srcTotal []int  // sources whose sending engine is this shard
	srcBound []int  // of those, how many declared a pairwise bound
	declMin  []Time // min declared pairwise bound (0 = none yet)
	effOut   []Time // effective min outgoing lookahead (maxTime = cannot send)

	adaptive bool // adaptive horizons; off only in tests (static reference)
	curEnd   Time // current window end; -1 outside windows (Post guard)

	nexts   []Time // per-LP NextAt cache for the window scan
	work    []int  // busy LP indices for the current window
	perr    []any  // per-LP recovered panic from the last window
	pool    *workerPool
	stats   ClusterStats
	stopped bool
}

// ClusterStats counts synchronization work — the attribution data for
// "why is the sharded run slow": too many windows, windows too narrow,
// too much cross-shard chatter, or workers starved.
type ClusterStats struct {
	Windows   uint64 // safe-horizon windows executed
	WidthSum  uint64 // total sim-ns spanned by those windows
	Msgs      uint64 // cross-shard messages drained at barriers
	BusySum   uint64 // LPs with pending work, summed over windows
	UsedSlots uint64 // min(busy LPs, workers), summed over windows
	Slots     uint64 // workers × windows (capacity for UsedSlots)
	Globals   uint64 // barrier rounds spent on global control events
}

// Stats returns the synchronization counters accumulated so far.
func (c *Cluster) Stats() ClusterStats { return c.stats }

// xmsg is one cross-shard message: run fn(arg) on dst at time at. prep,
// when set, runs on the coordinator just before scheduling — the hook
// the audit layer and the SKB arenas use to hand a packet's ledger
// record and buffer ownership from the source shard to the destination
// shard while both are parked. schedAt is the sender's clock at Post
// time and seq the send order within the source: with the source id
// they make the drain order — and hence every same-nanosecond tie at
// the destination — independent of the host-to-shard layout.
type xmsg struct {
	at      Time
	schedAt Time
	seq     uint64
	dst     *Engine
	prep    func(any)
	fn      func(any)
	arg     any
}

// outQ is one source's outbox: an array-rewind FIFO drained in full at
// every barrier. Posts from one source are usually already in (at,
// schedAt) order — links monotonize arrivals — so the queue just tracks
// whether an out-of-order append happened and sorts only then.
type outQ struct {
	items    []xmsg
	head     int // consumed prefix during the barrier merge
	unsorted bool
}

func (q *outQ) Len() int { return len(q.items) }
func (q *outQ) Less(a, b int) bool {
	x, y := &q.items[a], &q.items[b]
	if x.at != y.at {
		return x.at < y.at
	}
	if x.schedAt != y.schedAt {
		return x.schedAt < y.schedAt
	}
	return x.seq < y.seq
}
func (q *outQ) Swap(a, b int) { q.items[a], q.items[b] = q.items[b], q.items[a] }

// NewCluster returns a PDES cluster with the given number of logical
// processes. workers caps the goroutines running LPs within a window
// (<=0 selects GOMAXPROCS, clipped to shards). All LPs and the global
// engine share one root RNG seeded with seed, exactly like New(seed).
func NewCluster(seed uint64, shards, workers int) *Cluster {
	if shards < 1 {
		shards = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	c := &Cluster{root: NewRand(seed), workers: workers, adaptive: true, curEnd: -1}
	c.global = NewShared(c.root)
	c.lps = make([]*Engine, shards)
	for i := range c.lps {
		c.lps[i] = NewShared(c.root)
		c.lps[i].shard = i
	}
	c.act = make([][]int, shards)
	c.srcTotal = make([]int, shards)
	c.srcBound = make([]int, shards)
	c.declMin = make([]Time, shards)
	c.effOut = make([]Time, shards)
	c.recomputeOut()
	c.nexts = make([]Time, shards)
	c.perr = make([]any, shards)
	return c
}

// AutoShards picks a (shards, workers) pair for a topology with the
// given number of hosts on this machine: one worker per CPU (capped at
// one per host), and about two LPs per worker so window imbalance can
// be absorbed by work stealing. On a single-CPU machine it degrades to
// (1, 1): the serial engine, with zero synchronization overhead.
func AutoShards(hosts int) (shards, workers int) {
	if hosts < 1 {
		hosts = 1
	}
	workers = runtime.NumCPU()
	if workers > hosts {
		workers = hosts
	}
	if workers <= 1 {
		return 1, 1
	}
	shards = hosts
	if lim := 2 * workers; shards > lim {
		shards = lim
	}
	return shards, workers
}

// Now returns the coordinator clock.
func (c *Cluster) Now() Time { return c.global.Now() }

// Rand returns the shared root RNG (construction-time forking only).
func (c *Cluster) Rand() *Rand { return c.root }

// Shard returns the engine owning logical process i (modulo shards).
func (c *Cluster) Shard(i int) *Engine { return c.lps[i%len(c.lps)] }

// NumShards returns the number of logical processes.
func (c *Cluster) NumShards() int { return len(c.lps) }

// Lookahead returns the current global cross-shard lookahead (0:
// unbounded — no cross-shard link registered yet).
func (c *Cluster) Lookahead() Time { return c.look }

// Bound lowers the cluster-wide lookahead floor to d: a cross-shard
// sender that does not (or cannot) declare a pairwise bound is held to
// this floor instead. The lookahead must never overestimate the true
// minimum latency — Post enforces this at every cross-shard send.
func (c *Cluster) Bound(d Time) {
	if d < 1 {
		d = 1 // progress requires a strictly positive lookahead
	}
	if c.look == 0 || d < c.look {
		c.look = d
	}
	c.recomputeOut()
}

// recomputeOut refreshes every shard's effective minimum outgoing
// lookahead: the widest window the shard's pending work permits is
// next-event + effOut - 1. A shard with no sources cannot send at all
// (effOut = maxTime); a shard with any source that never declared a
// pairwise bound is only guaranteed the global floor.
func (c *Cluster) recomputeOut() {
	for s := range c.effOut {
		switch {
		case c.srcTotal[s] == 0:
			c.effOut[s] = maxTime
		case c.srcBound[s] < c.srcTotal[s] || c.declMin[s] == 0:
			c.effOut[s] = c.look
		default:
			c.effOut[s] = c.declMin[s]
		}
	}
}

// Control-plane scheduling: runs on the coordinator at barriers.

func (c *Cluster) At(t Time, fn func()) Timer    { return c.global.At(t, fn) }
func (c *Cluster) After(d Time, fn func()) Timer { return c.global.After(d, fn) }
func (c *Cluster) AtArg(t Time, fn func(any), arg any) Timer {
	return c.global.AtArg(t, fn, arg)
}
func (c *Cluster) AfterArg(d Time, fn func(any), arg any) Timer {
	return c.global.AfterArg(d, fn, arg)
}

// Stop halts the run loop at the next barrier. Control context only.
func (c *Cluster) Stop() {
	c.stopped = true
	c.global.Stop()
}

// SetEventBudget applies the cap to every logical process and the
// global engine individually — a runaway backstop, not an exact global
// count (a cluster may fire up to shards×n events before tripping).
func (c *Cluster) SetEventBudget(n uint64) {
	c.global.SetEventBudget(n)
	for _, lp := range c.lps {
		lp.SetEventBudget(n)
	}
}

// Fired returns the total events fired across all engines.
func (c *Cluster) Fired() uint64 {
	n := c.global.Fired()
	for _, lp := range c.lps {
		n += lp.Fired()
	}
	return n
}

// Inlined returns the total runAhead steps across all engines. A shard
// sees fewer foreign events than the serial engine, so it inlines more.
func (c *Cluster) Inlined() uint64 {
	n := c.global.Inlined()
	for _, lp := range c.lps {
		n += lp.Inlined()
	}
	return n
}

// Pending returns the number of scheduled events across all engines
// plus undrained cross-shard messages.
func (c *Cluster) Pending() int {
	n := c.global.Pending()
	for _, lp := range c.lps {
		n += lp.Pending()
	}
	for i := range c.outbox {
		q := &c.outbox[i]
		n += len(q.items) - q.head
	}
	return n
}

// PostSource is one stable cross-shard send endpoint (in the overlay,
// one direction of one inter-host link). Its id is allocated in
// topology-construction order and its sequence counter advances in
// send order on the owning shard, so both are independent of how hosts
// were laid out onto shards — the property the drain merge needs for
// shard-count-invariant tie-breaking.
type PostSource struct {
	c        *Cluster
	src, dst *Engine
	id       int
	look     Time // declared pairwise lookahead (0: global floor only)
	seq      uint64
}

// Source allocates a cross-shard send endpoint from src to dst. Call
// from coordinator context only (topology construction, or a
// reconfiguration barrier) — never from a running LP.
func (c *Cluster) Source(src, dst *Engine) *PostSource {
	c.nsrc++
	c.outbox = append(c.outbox, outQ{})
	c.srcTotal[src.shard]++
	c.recomputeOut()
	return &PostSource{c: c, src: src, dst: dst, id: c.nsrc}
}

// Bound declares this endpoint's minimum sender→receiver latency: no
// Post through it will ever arrive sooner than send+d. Tighter (larger)
// pairwise bounds let the adaptive horizon widen windows beyond the
// global floor; the guard in Post holds the endpoint to its word.
func (p *PostSource) Bound(d Time) {
	if d < 1 {
		d = 1
	}
	c := p.c
	if p.look == 0 {
		c.srcBound[p.src.shard]++
	}
	if p.look == 0 || d < p.look {
		p.look = d
	}
	s := p.src.shard
	if c.declMin[s] == 0 || d < c.declMin[s] {
		c.declMin[s] = d
	}
	c.Bound(d) // keeps the global floor ≤ every declared pairwise bound
}

// Post sends a cross-shard message: fn(arg) runs on the destination
// shard at time at. Called from LP context mid-window; the message
// parks in the source's outbox until the barrier. Two invariants are
// enforced on every send:
//   - the arrival respects the endpoint's advertised lookahead — a
//     violation means a link advertised a latency it can undercut,
//     which would corrupt causality;
//   - the arrival lands strictly after the current window — the
//     adaptive horizon's safety argument, checked rather than assumed.
func (p *PostSource) Post(at Time, prep, fn func(any), arg any) {
	c := p.c
	eff := c.look
	if p.look > eff {
		eff = p.look
	}
	if at < p.src.now+eff {
		panic(fmt.Sprintf("sim: cross-shard message from shard %d at %v arrives %v, inside the lookahead horizon %v (lookahead overestimated)",
			p.src.shard, p.src.now, at, p.src.now+eff))
	}
	if end := c.curEnd; end >= 0 && at <= end {
		panic(fmt.Sprintf("sim: cross-shard message from shard %d at %v arrives %v, inside the active window ending %v (adaptive horizon unsafe)",
			p.src.shard, p.src.now, at, end))
	}
	q := &c.outbox[p.id-1]
	if n := len(q.items); n > 0 {
		if last := &q.items[n-1]; at < last.at || (at == last.at && p.src.now < last.schedAt) {
			q.unsorted = true
		}
	} else {
		s := p.src.shard
		c.act[s] = append(c.act[s], p.id-1)
	}
	p.seq++
	q.items = append(q.items, xmsg{
		at: at, schedAt: p.src.now, seq: p.seq,
		dst: p.dst, prep: prep, fn: fn, arg: arg,
	})
}

// drain moves every parked cross-shard message into its destination
// engine with an allocation-free k-way merge over the per-source
// outboxes. Messages are scheduled with the sender's clock as their
// tie-break key (Engine.atStamped), in (arrival, send time, source id,
// source sequence) order: deliveries therefore interleave with the
// destination's own same-nanosecond events exactly as on one serial
// engine, and ties between messages resolve identically for every
// shard count. Per-source runs are almost always already sorted (links
// monotonize arrivals), so the merge is a min-scan over k queue heads
// — no global re-sort, no comparator closure.
func (c *Cluster) drain() {
	act := c.actScr[:0]
	for s := range c.act {
		for _, id := range c.act[s] {
			q := &c.outbox[id]
			if q.unsorted {
				sort.Sort(q)
				q.unsorted = false
			}
			act = append(act, id)
		}
		c.act[s] = c.act[s][:0]
	}
	if len(act) == 0 {
		return
	}
	for len(act) > 0 {
		b, bq := 0, &c.outbox[act[0]]
		for j := 1; j < len(act); j++ {
			q := &c.outbox[act[j]]
			x, y := &q.items[q.head], &bq.items[bq.head]
			switch {
			case x.at != y.at:
				if x.at < y.at {
					b, bq = j, q
				}
			case x.schedAt != y.schedAt:
				if x.schedAt < y.schedAt {
					b, bq = j, q
				}
			case act[j] < act[b]:
				b, bq = j, q
			}
		}
		m := &bq.items[bq.head]
		if m.prep != nil {
			m.prep(m.arg)
		}
		m.dst.atStamped(m.at, m.schedAt, m.dst.stamp(), m.fn, m.arg)
		*m = xmsg{} // drop refs so drained args can be collected
		c.stats.Msgs++
		bq.head++
		if bq.head == len(bq.items) {
			bq.items, bq.head = bq.items[:0], 0
			last := len(act) - 1
			act[b] = act[last]
			act = act[:last]
		}
	}
	c.actScr = act[:0]
}

const maxTime = Time(math.MaxInt64)

// minNext fills c.nexts and returns the earliest pending LP event time.
// Engine.NextAt reads the engine's cached hint, so this sweep costs
// O(shards) loads, not O(shards) wheel scans.
func (c *Cluster) minNext() (Time, bool) {
	t, ok := maxTime, false
	for i, lp := range c.lps {
		if n, has := lp.NextAt(); has {
			c.nexts[i] = n
			if n < t {
				t, ok = n, true
			}
		} else {
			c.nexts[i] = maxTime
		}
	}
	return t, ok
}

// adaptiveEnd returns the widest provably safe window end: one less
// than the earliest cross-shard arrival any busy shard could produce
// (its next pending event plus its minimum outgoing lookahead). Idle
// shards cannot send mid-window (nothing can wake an LP between
// barriers), and shards with no outgoing sources cannot send at all,
// so neither constrains the window. Always ≥ the static tLP+L-1 —
// every per-shard term is ≥ tLP + L.
func (c *Cluster) adaptiveEnd() Time {
	end := maxTime
	for i := range c.lps {
		n := c.nexts[i]
		if n == maxTime {
			continue
		}
		l := c.effOut[i]
		if l >= maxTime-n {
			continue
		}
		if e := n + l - 1; e < end {
			end = e
		}
	}
	return end
}

// Run executes events until none remain anywhere or Stop is called.
func (c *Cluster) Run() { c.run(maxTime, false) }

// RunUntil executes all events with at <= deadline, then parks every
// clock at the deadline. Serial-equivalent to Engine.RunUntil.
func (c *Cluster) RunUntil(deadline Time) { c.run(deadline, true) }

func (c *Cluster) run(deadline Time, park bool) {
	c.stopped = false
	c.startWorkers()
	defer c.stopWorkers()
	for !c.stopped {
		c.drain()
		tLP, okLP := c.minNext()
		tG, okG := c.global.NextAt()
		if !okLP && !okG {
			break
		}
		t := tLP
		if !okLP || (okG && tG < t) {
			t = tG
		}
		if t > deadline {
			break
		}
		if okG && (!okLP || tG <= tLP) {
			// Global events first at any tied time (serial order:
			// control events carry lower seq). Park every LP at tG,
			// then run the coordinator queue there.
			for _, lp := range c.lps {
				lp.SetClock(tG)
			}
			c.global.RunUntil(tG)
			c.stats.Globals++
			continue
		}
		// Safe-horizon window: [tLP, end], end strictly before both the
		// earliest possible cross-shard arrival and the next global
		// event.
		end := deadline
		if c.look > 0 {
			if c.adaptive {
				if e := c.adaptiveEnd(); e < end {
					end = e
				}
			} else if tLP+c.look-1 < end {
				end = tLP + c.look - 1
			}
		}
		if okG && tG-1 < end {
			end = tG - 1
		}
		c.runWindow(end)
		c.global.SetClock(end)
		c.stats.Windows++
		c.stats.WidthSum += uint64(end - tLP + 1)
	}
	if c.stopped || !park {
		return
	}
	for _, lp := range c.lps {
		lp.SetClock(deadline)
	}
	c.global.SetClock(deadline)
}

// runWindow advances every LP to end. Busy LPs run on the persistent
// worker pool (the coordinator itself takes part); idle LPs just park
// their clocks. With at most one busy LP — the serial degenerate case,
// and the whole run on a single-CPU machine — the window runs inline on
// the coordinator: no wakeups, no atomics.
func (c *Cluster) runWindow(end Time) {
	work := c.work[:0]
	for i, lp := range c.lps {
		if c.nexts[i] <= end {
			work = append(work, i)
		} else {
			lp.SetClock(end)
		}
	}
	c.work = work
	busy := len(work)
	c.stats.BusySum += uint64(busy)
	used := busy
	if used > c.workers {
		used = c.workers
	}
	c.stats.UsedSlots += uint64(used)
	c.stats.Slots += uint64(c.workers)
	if busy == 0 {
		return
	}
	c.curEnd = end
	defer func() { c.curEnd = -1 }()
	if busy == 1 || c.workers <= 1 || c.pool == nil {
		for _, i := range work {
			c.lps[i].RunUntil(end)
		}
		return
	}
	p := c.pool
	helpers := busy - 1 // the coordinator covers one LP itself
	if helpers > len(p.wake) {
		helpers = len(p.wake)
	}
	p.next.Store(0)
	p.left.Store(int32(helpers))
	for w := 0; w < helpers; w++ {
		p.wake[w] <- end
	}
	p.runLPs(end)
	<-p.done
	// Re-raise the first (lowest-shard) panic deterministically; other
	// shards' panics from the same window are dropped, like the serial
	// engine abandoning its queue after a panic.
	for i, e := range c.perr {
		if e != nil {
			c.perr[i] = nil
			panic(e)
		}
	}
}

// runLP runs one LP to the window end, capturing a panic (event-budget
// overrun, audit abort) for deterministic re-raise on the coordinator.
func (c *Cluster) runLP(i int, end Time) {
	defer func() {
		if r := recover(); r != nil {
			c.perr[i] = r
		}
	}()
	c.lps[i].RunUntil(end)
}

// workerPool holds the cluster's long-lived window executors: workers-1
// helper goroutines parked on buffered wake channels (the coordinator
// is the remaining worker). A window costs one channel send per woken
// helper and one receive for the barrier — no goroutine launches, no
// WaitGroup. Helpers pull LP indices from a shared atomic cursor, so a
// shard that finishes early steals the next busy shard immediately.
type workerPool struct {
	c    *Cluster
	wake []chan Time   // per-helper; the payload is the window end
	done chan struct{} // buffered(1); the last helper to finish signals
	next atomic.Int32  // cursor into c.work
	left atomic.Int32  // helpers still running this window
}

// startWorkers launches the helper goroutines for one run. They live
// for the whole run (stopWorkers, deferred in run, closes them down) —
// per-window cost is wake/park only.
func (c *Cluster) startWorkers() {
	if c.pool != nil {
		return
	}
	n := c.workers - 1
	if m := len(c.lps) - 1; n > m {
		n = m
	}
	if n <= 0 {
		return
	}
	p := &workerPool{c: c, done: make(chan struct{}, 1), wake: make([]chan Time, n)}
	for i := range p.wake {
		ch := make(chan Time, 1)
		p.wake[i] = ch
		go p.helper(ch)
	}
	c.pool = p
}

func (c *Cluster) stopWorkers() {
	p := c.pool
	if p == nil {
		return
	}
	c.pool = nil
	for _, ch := range p.wake {
		close(ch)
	}
}

func (p *workerPool) helper(wake chan Time) {
	for end := range wake {
		p.runLPs(end)
		if p.left.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}
}

// runLPs drains the shared work queue: claim the next busy LP, run it
// to the window end, repeat until the queue is exhausted.
func (p *workerPool) runLPs(end Time) {
	c := p.c
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(c.work) {
			return
		}
		c.runLP(c.work[i], end)
	}
}
