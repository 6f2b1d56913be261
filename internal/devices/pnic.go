package devices

import (
	"sort"

	"falcon/internal/costmodel"
	"falcon/internal/gro"
	"falcon/internal/netdev"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
	"falcon/internal/steering"
)

// DefaultRingSize is the per-queue receive ring capacity.
const DefaultRingSize = 4096

// DefaultNAPIBudget is packets processed per softirq activation before
// the poll yields (net_rx_action's budget).
const DefaultNAPIBudget = 64

// moderation is the adaptive interrupt-moderation window: after a
// NAPI cycle completes, the next hardirq is held off this long so
// back-to-back traffic accumulates into poll batches (and GRO gets
// segments to merge). An arrival after a quiet period interrupts
// immediately, so idle-flow latency is unaffected — the "adaptive
// interrupt coalescing" the paper's testbed enables.
const moderation = 12 * sim.Microsecond

// PNIC is a multi-queue physical NIC on the receive side: RSS spreads
// flows across queues, each queue's hardirq is affined to a core, and a
// NAPI poll loop drains the ring in softirq context with interrupt
// coalescing (no further hardirqs while polling) and optional GRO.
type PNIC struct {
	St      *netdev.Stack
	Name    string
	Ifindex int

	RSS        steering.RSS
	GROEnabled bool
	RingSize   int
	Budget     int

	// OnReceive continues the stack after poll+alloc(+GRO merge): it is
	// the netif_receive_skb entry installed by the receive path builder.
	OnReceive netdev.Handler

	queues map[int]*nicQueue

	// ringLimit, when positive, caps the usable depth of every rx ring
	// below RingSize — fault injection's "ring shrink" (a driver reset
	// renegotiating a tiny ring, or DMA buffer exhaustion). Zero is the
	// healthy full-depth ring.
	ringLimit int

	// down, when set, models a crashed host's NIC: every arriving frame
	// is dropped (accounted into crashDrops) instead of DMA'd — the wire
	// keeps delivering, the silicon is dead. Set via SetDown by the
	// host-crash fault.
	down       bool
	crashDrops *stats.Counter

	// Drops counts frames rejected by full rings.
	Drops stats.Counter
}

type nicQueue struct {
	core         int
	ring         *skb.Queue
	active       bool
	gro          *gro.Engine
	lastComplete sim.Time // when the previous NAPI cycle finished
	irqArmed     bool     // the moderated hardirq's slot is set
	irq          sim.Slots

	// Per-cycle poll state, held on the queue (instead of per-packet
	// closures) so the cached continuations below drive the whole NAPI
	// loop allocation-free.
	budget  int
	cur     *skb.SKB
	flushed []*skb.SKB
	fi      int
	more    bool

	fire       func() // (possibly moderated) hardirq entry
	raiseFn    func() // softirq raise after the hardirq charge
	pollStart  func() // fresh activation: reset budget, start polling
	afterAlloc func() // continue cur after poll+alloc charges
	pollNext   func() // next poll iteration
	deliverNxt func() // next flushed super-packet delivery
}

// NewPNIC builds a NIC registered on stack st.
func NewPNIC(st *netdev.Stack, name string, rss steering.RSS, groOn bool) *PNIC {
	return &PNIC{
		St:         st,
		Name:       name,
		Ifindex:    st.RegisterDevice(name),
		RSS:        rss,
		GROEnabled: groOn,
		RingSize:   DefaultRingSize,
		Budget:     DefaultNAPIBudget,
		queues:     make(map[int]*nicQueue),
	}
}

func (n *PNIC) queue(core int) *nicQueue {
	q, ok := n.queues[core]
	if !ok {
		q = &nicQueue{core: core, ring: skb.NewQueue(n.RingSize), gro: gro.New()}
		q.fire = func() {
			q.irqArmed = false
			if q.active || q.ring.Len() == 0 {
				return
			}
			q.active = true
			n.St.M.IRQ.Inc(q.core, stats.IRQHard)
			n.St.M.Core(q.core).Exec(stats.CtxHardIRQ, costmodel.FnHardIRQ, 0, q.raiseFn)
		}
		q.irq = n.St.M.E.NewSlots(1, func(int) { q.fire() })
		q.raiseFn = func() { n.raiseNetRX(q) }
		q.pollStart = func() {
			q.budget = n.Budget
			n.poll(q)
		}
		q.afterAlloc = func() {
			s := q.cur
			q.cur = nil
			q.budget--
			out := s
			if n.GROEnabled {
				out = q.gro.Push(s)
			}
			if out != nil {
				n.OnReceive(n.St.M.Core(q.core), out, q.pollNext)
				return
			}
			n.poll(q)
		}
		q.pollNext = func() { n.poll(q) }
		q.deliverNxt = func() {
			if q.fi < len(q.flushed) {
				s := q.flushed[q.fi]
				q.fi++
				n.OnReceive(n.St.M.Core(q.core), s, q.deliverNxt)
				return
			}
			q.flushed = nil
			if q.more || q.ring.Len() > 0 {
				n.raiseNetRX(q)
				return
			}
			// napi_complete: re-enable the (moderated) hardirq.
			q.active = false
			q.lastComplete = n.St.M.E.Now()
		}
		n.queues[core] = q
	}
	return q
}

// QueueState reports the queue affined to core without creating it:
// ring depth, remaining poll budget, and whether NAPI is active. The
// audit watchdog probes through here every sweep, so instantiating
// queues as a side effect would perturb the run.
func (n *PNIC) QueueState(core int) (ringLen, budget int, active bool) {
	q, ok := n.queues[core]
	if !ok {
		return 0, 0, false
	}
	return q.ring.Len(), q.budget, q.active
}

// EachRing visits every instantiated rx ring in core order.
func (n *PNIC) EachRing(yield func(core int, ring *skb.Queue)) {
	for _, c := range sortedCores(n.queues) {
		yield(c, n.queues[c].ring)
	}
}

// sortedCores returns a per-core map's cores in ascending order, the
// deterministic visiting order for Go's randomized map iteration.
func sortedCores[V any](m map[int]V) []int {
	cores := make([]int, 0, len(m))
	for c := range m {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	return cores
}

// GROMerged sums segments absorbed into held super-packets across every
// queue's GRO engine.
func (n *PNIC) GROMerged() uint64 {
	var total uint64
	for _, q := range n.queues {
		total += q.gro.Merged
	}
	return total
}

// SetRingLimit caps (limit > 0) or restores (limit <= 0) the usable rx
// ring depth. Frames already in a ring beyond a new cap stay queued;
// only admissions are limited.
func (n *PNIC) SetRingLimit(limit int) {
	if limit < 0 {
		limit = 0
	}
	n.ringLimit = limit
}

// SetDown marks the NIC dead (crashed host) or alive again. While down,
// every arriving frame is freed and counted into drops (the crash
// census bucket), so wire-delivered frames stay conserved.
func (n *PNIC) SetDown(down bool, drops *stats.Counter) {
	n.down = down
	n.crashDrops = drops
}

// PurgeRings frees every frame parked in an rx ring or held by an outer
// GRO engine, in core order, counting each into drops. In-flight poll
// state (q.cur, a flushed batch mid-delivery) is deliberately left
// alone: those SKBs are owned by continuation chains that terminate at
// the stack's own down checks.
func (n *PNIC) PurgeRings(drops *stats.Counter) {
	for _, c := range sortedCores(n.queues) {
		q := n.queues[c]
		for q.ring.Len() > 0 {
			s := q.ring.Dequeue()
			s.Drop(skb.DropNICDown)
			drops.Inc()
		}
		for _, s := range q.gro.Flush() {
			s.Drop(skb.DropNICDown)
			drops.Inc()
		}
	}
}

// Arrive is the link-delivery entry: DMA into the RSS-selected queue's
// ring and raise a (coalesced) hardirq. The receiving host starts from a
// fresh sk_buff: sender-side hash and core affinity do not carry over
// the wire.
func (n *PNIC) Arrive(s *skb.SKB) {
	if n.down {
		s.Drop(skb.DropNICDown)
		if n.crashDrops != nil {
			n.crashDrops.Inc()
		}
		return
	}
	s.ResetFlowHash()
	s.LastCore = -1
	s.Migrations = 0
	if err := s.SetFlowHash(); err != nil {
		n.Drops.Inc()
		s.Drop(skb.DropNICFrame)
		return
	}
	s.IfIndex = n.Ifindex
	q := n.queue(n.RSS.CoreFor(s.Hash))
	if n.ringLimit > 0 && q.ring.Len() >= n.ringLimit {
		n.Drops.Inc()
		s.Drop(skb.DropNICRing)
		return
	}
	s.Stage("nic-ring")
	if !q.ring.Enqueue(s) {
		n.Drops.Inc()
		s.Drop(skb.DropNICRing)
		return
	}
	if q.active || q.irqArmed {
		return // NAPI polling or a moderated interrupt pending
	}
	now := n.St.M.E.Now()
	if hold := q.lastComplete + moderation - now; hold > 0 {
		q.irqArmed = true
		q.irq.Set(0, now+hold)
		return
	}
	q.fire()
}

// raiseNetRX schedules one softirq activation of the poll loop.
func (n *PNIC) raiseNetRX(q *nicQueue) {
	n.St.M.IRQ.Inc(q.core, stats.IRQNetRX)
	core := n.St.M.Core(q.core)
	core.Exec(stats.CtxSoftIRQ, costmodel.FnSoftIRQEntry, 0, q.pollStart)
}

// poll drains up to the queue's remaining budget: per packet it charges
// the poll and skb-allocation costs, then feeds GRO. When the ring
// empties or the budget runs out, held GRO super-packets flush and the
// batch is handed to OnReceive in order.
func (n *PNIC) poll(q *nicQueue) {
	if q.budget == 0 || q.ring.Len() == 0 {
		n.flushAndDeliver(q, q.ring.Len() > 0)
		return
	}
	s := q.ring.Dequeue()
	s.Stage("napi-poll")
	s.Touch(q.core)
	q.cur = s
	core := n.St.M.Core(q.core)
	n.St.RunChain(core, stats.CtxSoftIRQ, []netdev.Step{
		{Fn: costmodel.FnNAPIPoll},
		{Fn: costmodel.FnSKBAlloc, Bytes: s.Len()},
	}, q.afterAlloc)
}

// flushAndDeliver releases GRO state and either re-arms the poll (budget
// exhausted with work remaining → a fresh NET_RX activation) or
// completes the NAPI cycle, re-enabling the hardirq.
func (n *PNIC) flushAndDeliver(q *nicQueue, more bool) {
	q.flushed = q.gro.Flush()
	q.fi = 0
	q.more = more
	q.deliverNxt()
}
