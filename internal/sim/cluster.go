package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
)

// Cluster is a conservative parallel discrete-event engine (PDES,
// DESIGN.md §6). The topology is partitioned into logical processes
// (LPs) — one Engine per shard, each owning the complete
// state of the hosts mapped to it — plus a coordinator-owned global
// engine for control-plane events (experiment samplers, fault windows,
// audit sweeps).
//
// Synchronization is a safe-horizon window barrier. Each cross-shard
// send endpoint (Source) declares its link's minimum sender→receiver
// latency (serialization of an empty frame + propagation delay) as its
// lookahead. Each iteration the coordinator computes the earliest
// pending LP event t and a window end E such that no cross-shard frame
// sent during [t, E] can arrive at or before E: with adaptive horizons
// (the default) E is the minimum over busy shards of (next event + that
// shard's minimum outgoing lookahead) - 1, which degenerates to the
// classic uniform [t, t+L-1] when every shard is busy and every
// source's lookahead equals the minimum L, and widens — often
// dramatically — when cross-shard senders are idle or their lookaheads
// exceed L.
// Frames sent across a shard boundary during the window therefore
// never preempt a running LP: they park in per-source outboxes and the
// coordinator moves them into per-source inboxes on the destination
// engines at the barrier, where each inbox's head waits in one group
// slot, as a link's head-of-wire frame does.
// The widening is provably safe (DESIGN.md §6) and additionally
// *checked*: Post panics if an arrival ever lands inside the window
// that produced it.
//
// Determinism, for any shard count and worker count:
//   - LPs share one construction-time root RNG (NewShared), so every
//     Fork during single-threaded topology construction consumes the
//     root stream exactly as the serial engine would. Runtime draws
//     come only from forks owned by a single LP.
//   - Every source's arrivals are monotone in (arrival, send time), and
//     the barrier drain stamps each message's sequence number on its
//     destination source by source in ascending id, each in FIFO
//     order. Deliveries therefore fire in (arrival, send time, source
//     id, send order) order, so same-nanosecond deliveries from
//     different shards always tie-break identically.
//   - Window boundaries do not influence that order: messages with
//     equal arrival and send time were sent in the same window and are
//     stamped in the same drain, so adaptive and fixed horizons
//     produce byte-identical schedules.
//   - Global events at time g run with every LP parked at g, before
//     any LP event at g — matching the serial engine, where control
//     events are construction-scheduled and hence carry lower
//     sequence numbers than the runtime-scheduled datapath events.
type Cluster struct {
	root    *Rand
	global  *Engine // coordinator control queue; its clock is Now()
	lps     []*Engine
	look    Time // minimum lookahead over all sources; 0 while there are none
	workers int

	srcs   []*PostSource // by id: construction order
	outMin []Time        // per shard: its sources' minimum lookahead (maxTime: none)

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

// xmsg is one cross-shard message: run fn(arg) on the destination at
// time at. prep, when set, runs on the coordinator at the drain — the
// hook the audit layer and the SKB arenas use to hand a packet's ledger
// record and buffer ownership from the source shard to the destination
// shard while both are parked. key.schedAt is the sender's clock at
// Post; key.seq is stamped on the destination at the drain.
type xmsg struct {
	at   Time
	key  Key
	prep func(any)
	fn   func(any)
	arg  any
}

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
	c.outMin = make([]Time, shards)
	for i := range c.outMin {
		c.outMin[i] = maxTime
	}
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

// Control-plane scheduling: runs on the coordinator at barriers.

func (c *Cluster) At(t Time, fn func())    { c.global.At(t, fn) }
func (c *Cluster) After(d Time, fn func()) { c.global.After(d, fn) }
func (c *Cluster) NewSlots(n int, fn func(slot int)) Slots {
	return c.global.NewSlots(n, fn)
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

// Inlined returns the total slot runs across all engines.
func (c *Cluster) Inlined() uint64 {
	n := c.global.Inlined()
	for _, lp := range c.lps {
		n += lp.Inlined()
	}
	return n
}

// Pending returns the number of scheduled events across all engines
// plus every cross-shard message not yet delivered, whether parked in
// its outbox or waiting in its inbox.
func (c *Cluster) Pending() int {
	n := c.global.Pending()
	for _, lp := range c.lps {
		n += lp.Pending()
	}
	for _, p := range c.srcs {
		n += len(p.out) + p.in.Len()
	}
	return n
}

// PostSource is one stable cross-shard send endpoint (in the overlay,
// one direction of one inter-host link). Its id is its index in
// topology-construction order, so it is independent of how hosts were
// laid out onto shards — the property the drain needs for
// shard-count-invariant tie-breaking. Messages wait in its outbox until
// the barrier, then in its inbox on the destination engine, whose head
// is set in the source's one group slot there.
type PostSource struct {
	c        *Cluster
	src, dst *Engine
	look     Time // minimum sender→receiver latency, at least 1
	last     Time // latest arrival posted so far

	out  []xmsg     // posted this window, in send order
	in   FIFO[xmsg] // drained, not yet delivered
	slot Slots      // set to the inbox head
}

// Source allocates a cross-shard send endpoint from src to dst whose
// arrivals never come sooner than look after their send: the link's
// minimum latency, at least 1 ns, since progress needs a positive
// lookahead. Post holds the endpoint to its word. Call from coordinator
// context only (topology construction, or a reconfiguration barrier) —
// never from a running LP.
func (c *Cluster) Source(src, dst *Engine, look Time) *PostSource {
	look = max(look, 1)
	p := &PostSource{c: c, src: src, dst: dst, look: look}
	p.slot = dst.NewSlots(1, p.deliver)
	c.srcs = append(c.srcs, p)
	c.outMin[src.shard] = min(c.outMin[src.shard], look)
	if c.look == 0 || look < c.look {
		c.look = look
	}
	return p
}

// Post sends a cross-shard message: fn(arg) runs on the destination
// shard at time at. Called from LP context mid-window; the message
// parks in the source's outbox until the barrier. Three invariants are
// enforced on every send:
//   - the arrival respects the endpoint's advertised lookahead — a
//     violation means a link advertised a latency it can undercut,
//     which would corrupt causality;
//   - the arrival lands strictly after the current window — the
//     adaptive horizon's safety argument, checked rather than assumed;
//   - arrivals through one source never go backwards in (arrival, send
//     time), as links guarantee by clamping, so the inbox is in firing
//     order. The send time is the sender's clock, which never goes
//     back, so only the arrival needs comparing.
func (p *PostSource) Post(at Time, prep, fn func(any), arg any) {
	if at < p.src.now+p.look {
		panic(fmt.Sprintf("sim: cross-shard message from shard %d at %v arrives %v, inside the lookahead horizon %v (lookahead overestimated)",
			p.src.shard, p.src.now, at, p.src.now+p.look))
	}
	if end := p.c.curEnd; end >= 0 && at <= end {
		panic(fmt.Sprintf("sim: cross-shard message from shard %d at %v arrives %v, inside the active window ending %v (adaptive horizon unsafe)",
			p.src.shard, p.src.now, at, end))
	}
	if at < p.last {
		panic(fmt.Sprintf("sim: cross-shard message from shard %d at %v arrives %v, before the previous arrival %v through the same source (arrivals must be monotone)",
			p.src.shard, p.src.now, at, p.last))
	}
	p.last = at
	p.out = append(p.out, xmsg{at: at, key: Key{schedAt: p.src.now}, prep: prep, fn: fn, arg: arg})
}

// deliver is the inbox slot's callback: it pops the head, sets the slot
// to the next head, and runs the message.
func (p *PostSource) deliver(int) {
	m := p.in.Pop()
	if p.in.Len() > 0 {
		h := p.in.Peek()
		p.slot.SetKey(0, h.at, h.key)
	}
	m.fn(m.arg)
}

// drain moves every parked cross-shard message into its source's inbox
// on the destination engine, stamping its sequence number there, and
// sets the source's slot when the inbox was empty. A delivery thus fires
// where an event scheduled at the barrier with the sender's clock as
// schedAt would. The stamp orders only messages with equal arrival and
// send time, whose serial order (which sender ran first) no shard
// knows: sources are drained in ascending id, each in FIFO order, so
// the lower id goes first.
func (c *Cluster) drain() {
	for _, p := range c.srcs {
		for i := range p.out {
			m := &p.out[i]
			if m.prep != nil {
				m.prep(m.arg)
			}
			m.key.seq = p.dst.stamp()
			if p.in.Len() == 0 {
				p.slot.SetKey(0, m.at, m.key)
			}
			p.in.Push(*m)
			*m = xmsg{} // the inbox holds it now; drop the outbox's refs
		}
		c.stats.Msgs += uint64(len(p.out))
		p.out = p.out[:0]
	}
}

const maxTime = Time(math.MaxInt64)

// minNext fills c.nexts and returns the earliest pending LP event time.
// Engine.NextAt reads the heap's top and the first slot, so this sweep
// costs O(shards) loads.
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
		l := c.outMin[i]
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
