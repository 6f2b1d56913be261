package sim

import (
	"fmt"
	"math"
)

// Cluster is a conservative discrete-event engine partitioned into
// logical processes (LPs; DESIGN.md §6): one Engine per shard, each
// scheduling the events of the hosts mapped to it, plus a
// coordinator-owned global engine for control-plane events (experiment
// samplers, fault windows, audit sweeps). Every LP runs on the
// coordinator's goroutine, one after another in LP order, so a sharded
// run is a determinism cross-check of the serial engine; its speed
// comes from each LP's shorter slot list. Nothing moves between LPs at
// a barrier but the posted messages: state an LP touches on another
// host's behalf (a freed SKB's arena, the audit ledger) is shared, not
// handed off.
//
// Synchronization is a safe-horizon window barrier (DESIGN.md §6.1).
// Each cross-shard send endpoint (Source) declares its link's minimum
// sender→receiver latency as its lookahead, and L is the minimum over
// all of them. Each window runs every LP from the earliest pending LP
// event tLP to min(deadline, tLP+L-1, tG-1), tG being the next global
// event: nothing sent at or after tLP can arrive inside it. Frames sent
// across a shard boundary during the window therefore never preempt a
// running LP: they park in per-source outboxes and the coordinator
// moves them into per-source inboxes on the destination engines at the
// barrier, where each inbox's head waits in one group slot, as a link's
// head-of-wire frame does. Post checks every send against the rule.
//
// Determinism, for any shard count:
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
//     stamped in the same drain.
//   - Global events at time g run with every LP parked at g, before
//     any LP event at g — matching the serial engine, where control
//     events are construction-scheduled and hence carry lower
//     sequence numbers than the runtime-scheduled datapath events.
type Cluster struct {
	root   *Rand
	global *Engine // coordinator control queue; its clock is Now()
	lps    []*Engine
	look   Time // minimum lookahead over all sources; 0 while there are none

	srcs   []*PostSource // by id: construction order
	curEnd Time          // current window end; -1 outside windows (Post guard)

	nexts   []Time // per-LP NextAt cache for the window scan
	stats   ClusterStats
	stopped bool
}

// ClusterStats counts synchronization work: how many windows, how wide,
// and how much cross-shard traffic.
type ClusterStats struct {
	Windows  uint64 // safe-horizon windows executed
	WidthSum uint64 // total sim-ns spanned by those windows
	Msgs     uint64 // cross-shard messages drained at barriers
	BusySum  uint64 // LPs with pending work, summed over windows
	Globals  uint64 // barrier rounds spent on global control events

	// UsedSlots counts windows with a busy LP and Slots counts windows:
	// the occupancy of the one goroutine that runs LPs. Both are kept
	// only for bench/.
	UsedSlots uint64
	Slots     uint64
}

// Stats returns the synchronization counters accumulated so far.
func (c *Cluster) Stats() ClusterStats { return c.stats }

// xmsg is one cross-shard message: run fn(arg) on the destination at
// time at. key.schedAt is the sender's clock at Post; key.seq is
// stamped on the destination at the drain.
type xmsg struct {
	at  Time
	key Key
	fn  func(any)
	arg any
}

// NewCluster returns a cluster with the given number of logical
// processes. All LPs and the global engine share one root RNG seeded
// with seed, exactly like New(seed). The workers argument is kept only
// for bench/: every LP runs on the caller's goroutine, so it must be at
// most 1.
func NewCluster(seed uint64, shards, workers int) *Cluster {
	if workers > 1 {
		panic(fmt.Sprintf("sim: NewCluster with %d workers; every LP runs on one goroutine", workers))
	}
	if shards < 1 {
		shards = 1
	}
	c := &Cluster{root: NewRand(seed), curEnd: -1}
	c.global = NewShared(c.root)
	c.lps = make([]*Engine, shards)
	for i := range c.lps {
		c.lps[i] = NewShared(c.root)
		c.lps[i].shard = i
	}
	c.nexts = make([]Time, shards)
	return c
}

// autoMinHosts is the smallest topology -shards auto splits. One LP per
// host beat the serial engine on every mesh ring from 8 hosts up
// (BenchmarkMeshShards); on the 2- and 3-host testbeds it ran at break
// even or slower.
const autoMinHosts = 8

// AutoShards returns the layout -shards auto picks for a topology with
// the given number of hosts: one LP per host, or the serial engine (1)
// below autoMinHosts. It reads nothing but the host count, so every
// machine picks the same layout. The workers result is always 1 and is
// kept only for bench/.
func AutoShards(hosts int) (shards, workers int) {
	if hosts < autoMinHosts {
		return 1, 1
	}
	return hosts, 1
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

// SlotPasses returns Engine.SlotPasses summed over all engines.
func (c *Cluster) SlotPasses() (passes, sets uint64) {
	passes, sets = c.global.SlotPasses()
	for _, lp := range c.lps {
		p, s := lp.SlotPasses()
		passes, sets = passes+p, sets+s
	}
	return passes, sets
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
//   - the arrival lands strictly after the current window — which the
//     first check cannot see when the post goes through another LP's
//     endpoint while that LP's clock still lags the window start;
//   - arrivals through one source never go backwards in (arrival, send
//     time), as links guarantee by clamping, so the inbox is in firing
//     order. The send time is the sender's clock, which never goes
//     back, so only the arrival needs comparing.
func (p *PostSource) Post(at Time, fn func(any), arg any) {
	if at < p.src.now+p.look {
		panic(fmt.Sprintf("sim: cross-shard message from shard %d at %v arrives %v, inside the lookahead horizon %v (lookahead overestimated)",
			p.src.shard, p.src.now, at, p.src.now+p.look))
	}
	if end := p.c.curEnd; end >= 0 && at <= end {
		panic(fmt.Sprintf("sim: cross-shard message from shard %d at %v arrives %v, inside the active window ending %v (endpoint's clock lags the window)",
			p.src.shard, p.src.now, at, end))
	}
	if at < p.last {
		panic(fmt.Sprintf("sim: cross-shard message from shard %d at %v arrives %v, before the previous arrival %v through the same source (arrivals must be monotone)",
			p.src.shard, p.src.now, at, p.last))
	}
	p.last = at
	p.out = append(p.out, xmsg{at: at, key: Key{schedAt: p.src.now}, fn: fn, arg: arg})
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

// Run executes events until none remain anywhere or Stop is called.
func (c *Cluster) Run() { c.run(maxTime, false) }

// RunUntil executes all events with at <= deadline, then parks every
// clock at the deadline. Serial-equivalent to Engine.RunUntil.
func (c *Cluster) RunUntil(deadline Time) { c.run(deadline, true) }

func (c *Cluster) run(deadline Time, park bool) {
	c.stopped = false
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
			end = min(end, tLP+c.look-1)
		}
		if okG {
			end = min(end, tG-1)
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

// runWindow advances every LP to end: it parks each idle LP's clock
// there, then runs each busy LP to it, in LP order.
func (c *Cluster) runWindow(end Time) {
	busy := uint64(0)
	for i, lp := range c.lps {
		if c.nexts[i] <= end {
			busy++
		} else {
			lp.SetClock(end)
		}
	}
	c.stats.BusySum += busy
	c.stats.UsedSlots += min(busy, 1)
	c.stats.Slots++
	c.curEnd = end
	defer func() { c.curEnd = -1 }()
	for i, lp := range c.lps {
		if c.nexts[i] <= end {
			lp.RunUntil(end)
		}
	}
}
