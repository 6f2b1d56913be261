// Package netdev provides the kernel-side plumbing every network device
// shares: per-CPU packet backlogs (input_pkt_queue), softirq raising with
// NET_RX/RES accounting, the netif_rx stage-transition mechanism that
// Falcon re-purposes, and a device registry assigning ifindex values.
//
// The semantics mirror Linux: enqueueing to a backlog whose softirq is
// not yet pending raises NET_RX (counted once per activation, so batched
// processing coalesces raises exactly as the kernel does); enqueueing to
// a *remote* idle core additionally costs an IPI, counted as a RES
// interrupt on the target. Those two rules are what make the paper's
// interrupt-count observations (Figs. 4 and 19b) emerge rather than
// being hard-coded.
package netdev

import (
	"fmt"

	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

// DefaultMaxBacklog is the per-core input_pkt_queue limit
// (net.core.netdev_max_backlog's Linux default).
const DefaultMaxBacklog = 1000

// Handler processes one packet at one pipeline stage, in softirq context
// on core c. Implementations charge their own per-function costs through
// c and MUST call done exactly once when the packet leaves the stage.
type Handler func(c *cpu.Core, s *skb.SKB, done func())

// Step is one costed function invocation in a processing chain.
type Step struct {
	Fn    costmodel.Func
	Bytes int
}

// chain is the recycled state of one RunChain invocation. Steps are
// copied into the inline array (the datapath's chains are 2 steps), so
// caller step-slice literals never escape, and the continuation passed
// to Exec is the cached self method value — the whole multi-step charge
// sequence costs zero allocations per packet.
// Chains recycle through their stack's free list.
type chain struct {
	st   *Stack
	c    *cpu.Core
	ctx  stats.CPUContext
	buf  [4]Step
	n, i int
	then func()
	self func() // cached ch.step method value
	next *chain // Stack free list
}

func (ch *chain) step() {
	if ch.i >= ch.n {
		then := ch.then
		ch.c, ch.then = nil, nil
		ch.next = ch.st.chains
		ch.st.chains = ch
		if then != nil {
			then()
		}
		return
	}
	s := ch.buf[ch.i]
	ch.i++
	ch.c.Exec(ch.ctx, s.Fn, s.Bytes, ch.self)
}

// RunChain executes steps sequentially on c in context ctx, charging each
// through the machine's cost model, then calls then (which may be nil).
// A chain holds at most 4 steps; a longer one panics. Chain state
// recycles through the stack's single-owner free list: every chain a
// stack runs starts and finishes on the stack's own PDES shard, so a
// plain list works without atomics.
func (st *Stack) RunChain(c *cpu.Core, ctx stats.CPUContext, steps []Step, then func()) {
	if len(steps) == 0 {
		if then != nil {
			then()
		}
		return
	}
	if len(steps) > len(chain{}.buf) {
		panic(fmt.Sprintf("netdev: RunChain with %d steps; a chain holds at most %d", len(steps), len(chain{}.buf)))
	}
	ch := st.chains
	if ch == nil {
		ch = &chain{st: st}
		ch.self = ch.step
	} else {
		st.chains = ch.next
		ch.next = nil
	}
	ch.c, ch.ctx, ch.then = c, ctx, then
	ch.n, ch.i = copy(ch.buf[:], steps), 0
	ch.step()
}

type backlogEntry struct {
	s *skb.SKB
	h Handler
}

// perCPUBacklog is one core's input_pkt_queue plus its NAPI-style state.
// pending mirrors the NET_RX bit in the softirq pending mask: set by
// netif_rx, cleared when a softirq invocation begins. draining tracks
// whether a drain loop is active on the core. An enqueue during a drain
// sets pending again and counts another NET_RX — exactly how raising a
// softirq from softirq context re-invokes __do_softirq in Linux (and the
// reason the overlay path's vxlan_rcv and veth_xmit each add a counted
// softirq, paper Fig. 4).
// Two queues per core mirror the kernel's structure: `remote` is the
// admission-limited input_pkt_queue fresh packets enter from other cores
// (RPS steering, Falcon transitions); `local` holds same-core
// recirculation — packets a stage on this core re-enqueued for its own
// next stage (the vanilla overlay's vxlan→gro_cells and veth→backlog
// hops, which in Linux live on separate NAPI instances and therefore do
// not compete with fresh admissions for queue slots). local drains
// first, so packets already inside the pipeline finish before new ones
// are admitted.
type perCPUBacklog struct {
	local    sim.FIFO[backlogEntry]
	remote   sim.FIFO[backlogEntry]
	pending  bool
	draining bool
	dropped  uint64
	// enter (clear the pending bit, drain) and drainDone (drain the next
	// packet) are the core's cached softirq continuations, made at its
	// first ensureDraining, so a core that never drains holds none and a
	// draining one allocates nothing per packet.
	enter     func()
	drainDone func()
	// idleFlushed records that OnDrained already ran for the current
	// idle period; cleared by any enqueue so the next full drain runs
	// the hook again.
	idleFlushed bool
}

// Stack is one host's shared network-stack state.
type Stack struct {
	M          *cpu.Machine
	MaxBacklog int

	backlogs []perCPUBacklog
	devices  []string // index = ifindex-1

	// chains is the stack's chain free list (see (*Stack).RunChain).
	chains *chain

	// OnDrained, when set, runs as a core's backlog fully drains and its
	// softirq is about to exit — the napi_complete point. The receive
	// path uses it to flush GRO engines that would otherwise hold
	// segments across an idle period (a window-limited TCP sender then
	// deadlocks against its own held tail). The hook runs at most once
	// per idle period, must call done exactly once, and may enqueue:
	// anything it adds is drained before the softirq exits.
	OnDrained func(c *cpu.Core, done func())

	// Drops counts packets rejected by full backlogs.
	Drops stats.Counter

	// down, when set, models a crashed host's kernel: every NetifRx —
	// fresh admission or same-core recirculation — is refused and the
	// packet freed into crashDrops. In-flight handler chains thus
	// terminate, accounted, at their next stage transition.
	down       bool
	crashDrops *stats.Counter
}

// NewStack returns a stack over machine m.
func NewStack(m *cpu.Machine) *Stack {
	st := &Stack{
		M:          m,
		MaxBacklog: DefaultMaxBacklog,
		backlogs:   make([]perCPUBacklog, m.NumCores()),
		// Room for a host's NIC, VXLAN device and bridge and the veth
		// pairs of two containers.
		devices: make([]string, 0, 8),
	}
	return st
}

// RegisterDevice assigns the next ifindex (1-based, as in Linux) to a
// named device.
func (st *Stack) RegisterDevice(name string) int {
	st.devices = append(st.devices, name)
	return len(st.devices)
}

// DeviceName returns the name registered for ifindex.
func (st *Stack) DeviceName(ifindex int) string {
	if ifindex < 1 || ifindex > len(st.devices) {
		return fmt.Sprintf("if%d", ifindex)
	}
	return st.devices[ifindex-1]
}

// BacklogLen returns the queue depth of core's backlog (both classes).
func (st *Stack) BacklogLen(core int) int {
	b := &st.backlogs[core]
	return b.local.Len() + b.remote.Len()
}

// BacklogDropped returns drops on one core's backlog.
func (st *Stack) BacklogDropped(core int) uint64 { return st.backlogs[core].dropped }

// NetifRx is the stage-transition function (the kernel's netif_rx, as
// re-purposed by Falcon): it enqueues s on target core's backlog to be
// processed by h, raising NET_RX there if not already pending. from is
// the core currently processing the packet (nil when the packet enters
// from hardirq context with no running softirq, e.g. a NIC).
//
// It reports false when the backlog is full and the packet was dropped.
func (st *Stack) NetifRx(from *cpu.Core, target int, s *skb.SKB, h Handler) bool {
	if st.down {
		s.Drop(skb.DropStackDown)
		if st.crashDrops != nil {
			st.crashDrops.Inc()
		}
		return false
	}
	b := &st.backlogs[target]
	local := from != nil && from.ID() == target
	if local {
		// Same-core recirculation: a separate NAPI instance in Linux
		// (gro_cells for VXLAN, the backlog for veth), not subject to the
		// input_pkt_queue admission limit. Scheduling an idle per-device
		// NAPI counts a NET_RX invocation — this is why the overlay path
		// shows multiples of the native softirq count (paper Fig. 4).
		if b.local.Len() == 0 {
			st.M.IRQ.Inc(target, stats.IRQNetRX)
			// The fresh invocation of this device's NAPI pays softirq
			// entry overhead on the core, as each net_rx_action restart
			// does in Linux.
			from.Exec(stats.CtxSoftIRQ, costmodel.FnSoftIRQEntry, 0, nil)
		}
		s.Stage("backlog")
		b.local.Push(backlogEntry{s: s, h: h})
		b.idleFlushed = false
		st.ensureDraining(target)
		return true
	}
	if b.remote.Len() >= st.MaxBacklog {
		b.dropped++
		st.Drops.Inc()
		s.Drop(skb.DropBacklog)
		return false
	}
	if from != nil {
		// Cost of the cross-core handoff, charged to the initiating core:
		// the enqueue itself plus, if the target's softirq is not already
		// pending, the IPI that kicks it.
		from.Exec(stats.CtxSoftIRQ, costmodel.FnEnqueueRemote, 0, nil)
		if !b.pending && !b.draining {
			from.Exec(stats.CtxSoftIRQ, costmodel.FnIPIRaise, 0, nil)
			st.M.IRQ.Inc(target, stats.IRQRES)
		}
	}
	s.Stage("backlog")
	b.remote.Push(backlogEntry{s: s, h: h})
	b.idleFlushed = false
	st.kick(target)
	return true
}

// BacklogState reports one core's backlog for the audit watchdog:
// queue depths plus the pending/draining softirq bits.
func (st *Stack) BacklogState(core int) (local, remote int, pending, draining bool) {
	b := &st.backlogs[core]
	return b.local.Len(), b.remote.Len(), b.pending, b.draining
}

// kick raises NET_RX on the target: set the pending bit (counting one
// NET_RX per pending transition, matching /proc/softirqs) and start a
// drain loop if none is active.
func (st *Stack) kick(target int) {
	b := &st.backlogs[target]
	if !b.pending {
		b.pending = true
		st.M.IRQ.Inc(target, stats.IRQNetRX)
	}
	st.ensureDraining(target)
}

// ensureDraining schedules the softirq drain loop if none is active.
func (st *Stack) ensureDraining(target int) {
	b := &st.backlogs[target]
	if b.draining {
		return
	}
	b.draining = true
	core := st.M.Core(target)
	if b.enter == nil {
		b.enter = func() {
			b.pending = false
			st.drain(core)
		}
		b.drainDone = func() { st.drain(core) }
	}
	// do_softirq entry overhead, then drain.
	core.Exec(stats.CtxSoftIRQ, costmodel.FnSoftIRQEntry, 0, b.enter)
}

// drain processes backlog entries one packet at a time, FIFO. Each
// packet's handler runs to completion (calling done) before the next
// packet starts, preserving per-stage in-order processing. When the
// queue empties but the pending bit was re-set during the drain, the
// softirq re-enters (a fresh invocation), as __do_softirq does.
func (st *Stack) drain(core *cpu.Core) {
	b := &st.backlogs[core.ID()]
	var e backlogEntry
	switch {
	case b.local.Len() > 0:
		e = b.local.Pop()
	case b.remote.Len() > 0:
		e = b.remote.Pop()
	default:
		if b.pending {
			core.Exec(stats.CtxSoftIRQ, costmodel.FnSoftIRQEntry, 0, b.enter)
			return
		}
		if st.OnDrained != nil && !b.idleFlushed {
			b.idleFlushed = true
			st.OnDrained(core, b.drainDone)
			return
		}
		b.draining = false
		return
	}
	st.chargeMigration(core, e.s)
	e.h(core, e.s, b.drainDone)
}

// chargeMigration applies the cache-locality penalty when a packet
// resumes on a different core than last touched it.
func (st *Stack) chargeMigration(core *cpu.Core, s *skb.SKB) {
	if s.Touch(core.ID()) {
		core.Submit(stats.CtxSoftIRQ, costmodel.FnSoftIRQEntry, st.M.Model.Migration(), nil)
	}
}

// SetDown marks the stack dead (crashed host) or alive again; while
// down, NetifRx refuses everything into drops (the crash census
// bucket).
func (st *Stack) SetDown(down bool, drops *stats.Counter) {
	st.down = down
	st.crashDrops = drops
}

// PurgeBacklogs frees every packet queued in a per-CPU backlog — local
// recirculation first, then remote admissions, cores in order —
// counting each into drops. Softirq bookkeeping (pending/draining) is
// left to wind down through the normal drain loop, which simply finds
// the queues empty.
func (st *Stack) PurgeBacklogs(drops *stats.Counter) {
	for i := range st.backlogs {
		for _, q := range []*sim.FIFO[backlogEntry]{&st.backlogs[i].local, &st.backlogs[i].remote} {
			for q.Len() > 0 {
				q.Pop().s.Drop(skb.DropStackDown)
				drops.Inc()
			}
		}
	}
}
