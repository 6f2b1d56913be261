package devices

import (
	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/gro"
	"falcon/internal/ipfrag"
	"falcon/internal/netdev"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
	"falcon/internal/steering"
)

// RxFlowCache abstracts the ONCache-style decap fast path so the
// datapath does not depend on the overlay package (which owns the KV
// version and generation state entries revalidate against). The cache
// is consulted at the l3 branch for non-fragment VXLAN frames: a Probe
// hit returns the precomputed per-stage cost sum to charge, and the
// frame decapsulates in place and delivers straight to L4 — skipping
// the inner stage walk (outer udp_rcv + vxlan_rcv, gro_cell_poll,
// bridge, veth_xmit, backlog, second L3 traversal) and its softirq
// raises. A miss falls through to the walk after Learn records the
// flow, so the next packet fast-paths. Tables are per simulated core —
// core is the ID of the core the probe runs on — and implementations
// must only record flows the walk would deliver.
type RxFlowCache interface {
	Probe(core int, s *skb.SKB) (sim.Time, bool)
	Learn(core int, s *skb.SKB)
}

// CPUSelector abstracts Falcon's placement decisions so the datapath
// does not depend on the core package. A nil selector is the vanilla
// kernel (stages stay on the current core).
type CPUSelector interface {
	// GetCPU returns the core for the next stage of s at device ifindex
	// and whether Falcon placement applies.
	GetCPU(s *skb.SKB, ifindex int) (int, bool)
	// GROSplitOn reports whether the pNIC stage should be split before
	// napi_gro_receive.
	GROSplitOn() bool
}

// RxPath is the composed receive pipeline of one host (paper Fig. 8):
//
//	pNIC poll/alloc [→ Falcon GRO split] → GRO → netif_receive → RPS hop
//	→ ip_rcv → (host: L4) | (overlay: udp_rcv → vxlan_rcv decap
//	[→ Falcon hop] → gro_cell_poll → inner GRO → bridge → veth_xmit
//	[→ Falcon hop] → process_backlog → inner ip_rcv → L4)
//
// L4 handling (udp_rcv/tcp_v4_rcv + socket or transport delivery) is
// delegated to DeliverL4, installed by the overlay builder.
type RxPath struct {
	St  *netdev.Stack
	NIC *PNIC
	RPS steering.RPS

	// Falcon, when non-nil, pipelines stages across FALCON_CPUS.
	Falcon CPUSelector

	// Cache, when non-nil, is the RX decap fast path probed at the l3
	// branch (installed by the overlay builder; nil = full walk always).
	Cache RxFlowCache

	// Overlay wiring (nil Bridge means host-network mode for all
	// traffic).
	VXLANIf   int
	Bridge    *Bridge
	VethByMAC map[proto.MAC]*Veth

	// InnerGRO enables GRO at the VXLAN gro_cells stage (inner TCP
	// flows), as the kernel's gro_cells do.
	InnerGRO bool

	// DeliverL4 terminates the path: it must charge L4 costs and hand
	// the packet to a socket or transport endpoint.
	DeliverL4 netdev.Handler

	// Reasm is the host's IP reassembly queue (created on first
	// fragment; only exercised in MTU mode).
	Reasm *ipfrag.Reassembler

	// Decapped counts packets that took the overlay branch; HostPath
	// counts packets delivered natively.
	Decapped stats.Counter
	HostPath stats.Counter
	// PathDrops counts packets discarded inside the path (unparsable,
	// unknown MAC).
	PathDrops stats.Counter

	innerGRO map[int]*gro.Engine // per-core gro_cells engines

	// Cached Handler method values for the backlog entry points. A bound
	// method expression like rx.groStage allocates a closure at every
	// evaluation site; binding each once at Install keeps the per-packet
	// NetifRx calls allocation-free.
	hGRO          netdev.Handler
	hL3Backlog    netdev.Handler
	hVxlanBacklog netdev.Handler
	hVeth         netdev.Handler

	// walks is the path's rxWalk free list: every walk starts and ends on
	// this path's host (one PDES shard), so a plain single-owner list
	// recycles them without the sync.Pool atomics the walks used to pay.
	walks *rxWalk
}

// InnerGROMerged sums segments absorbed by the per-core gro_cells
// engines (the inner-GRO analogue of PNIC.GROMerged).
func (rx *RxPath) InnerGROMerged() uint64 {
	var total uint64
	for _, e := range rx.innerGRO {
		total += e.Merged
	}
	return total
}

// InnerGROHeld counts super-packets currently buffered inside the
// per-core gro_cells engines — in-flight work a host drain must see
// flushed before declaring the datapath quiesced.
func (rx *RxPath) InnerGROHeld() int {
	var total int
	for _, e := range rx.innerGRO {
		total += e.HeldCount()
	}
	return total
}

// PurgeHeld frees every segment the per-core gro_cells engines hold, in
// core order, counting each into drops — a host crash kills held
// inner-GRO state with the kernel that was accumulating it.
func (rx *RxPath) PurgeHeld(drops *stats.Counter) {
	for _, c := range sortedCores(rx.innerGRO) {
		for _, s := range rx.innerGRO[c].Flush() {
			s.Drop(skb.DropHostCrash)
			drops.Inc()
		}
	}
}

// Install wires the path into its NIC. Call once after filling fields.
func (rx *RxPath) Install() {
	if rx.innerGRO == nil {
		rx.innerGRO = make(map[int]*gro.Engine)
	}
	rx.hGRO = rx.groStage
	rx.hL3Backlog = rx.l3Backlog
	rx.hVxlanBacklog = rx.vxlanBacklog
	rx.hVeth = rx.vethBacklog
	rx.NIC.OnReceive = rx.afterAlloc
	if rx.InnerGRO {
		rx.St.OnDrained = rx.flushHeld
	}
}

// rxWalk threads one packet through the stage pipeline without per-stage
// closures: the continuation passed to each Submit/Exec/RunChain is a
// method value cached on the recycled object, so steady-state traffic
// reuses the same handful of walk objects instead of allocating a chain
// of closures per packet (previously the dominant rx-side allocation
// source). A walk lives from a backlog entry point to the next stage
// boundary — each NetifRx hop ends the current walk and a fresh one
// starts when the target backlog drains.
type rxWalk struct {
	rx   *RxPath
	c    *cpu.Core
	s    *skb.SKB
	done func()

	vethIf int         // destination veth, bridge → veth_xmit handoff
	eng    *gro.Engine // this core's gro_cells engine (inner-GRO path)

	// Continuations, bound once at pool-New time.
	afterGRO       func()
	afterNetif     func()
	afterL3Poll    func()
	afterIPRcv     func()
	afterVxlanRcv  func()
	afterCellPoll  func()
	afterInnerGRO  func()
	afterBridge    func()
	afterVethXmit  func()
	afterVethPoll  func()
	afterVethChain func()
	afterFast      func() // cache hit: straight to DeliverL4

	next *rxWalk // RxPath free list
}

func newRxWalk(rx *RxPath, c *cpu.Core, s *skb.SKB, done func()) *rxWalk {
	w := rx.walks
	if w == nil {
		w = new(rxWalk)
		w.afterGRO = w.netifStage
		w.afterNetif = w.steer
		w.afterL3Poll = w.l3Stage
		w.afterIPRcv = w.l3Branch
		w.afterVxlanRcv = w.decap
		w.afterCellPoll = w.cellPolled
		w.afterInnerGRO = w.innerMerged
		w.afterBridge = w.bridged
		w.afterVethXmit = w.vethHop
		w.afterVethPoll = w.vethStage
		w.afterVethChain = w.vethDeliver
		w.afterFast = w.deliver
	} else {
		rx.walks = w.next
		w.next = nil
	}
	w.rx, w.c, w.s, w.done = rx, c, s, done
	return w
}

// release returns the walk to its path's free list.
func (w *rxWalk) release() {
	rx := w.rx
	w.rx, w.c, w.s, w.done, w.eng = nil, nil, nil, nil, nil
	w.next = rx.walks
	rx.walks = w
}

// finish releases the walk and runs its completion. The walk is
// released before done runs: done may start a new walk (the inner-GRO
// flush loop does) and should find this one available.
func (w *rxWalk) finish() {
	done := w.done
	w.release()
	done()
}

// deliver ends the walk at DeliverL4, releasing the walk first so L4
// processing (which may recirculate into the path) can reuse it.
func (w *rxWalk) deliver() {
	rx, c, s, done := w.rx, w.c, w.s, w.done
	w.release()
	rx.DeliverL4(c, s, done)
}

// drop disposes the packet as a path drop for reason r and ends the
// walk.
func (w *rxWalk) drop(r skb.DropReason) {
	w.rx.PathDrops.Inc()
	w.s.Drop(r)
	w.finish()
}

// flushHeld is the napi_complete analogue: when a core's backlog fully
// drains, any segments its gro_cells engine still holds must flush. The
// in-batch flush in cellPolled misses them when the batch's last
// vxlan-stage packet is absorbed while later veth-stage entries still
// occupy the same queue — nothing re-enters the engine once those
// drain, and a window-limited TCP sender then deadlocks against its own
// held tail.
func (rx *RxPath) flushHeld(c *cpu.Core, done func()) {
	eng := rx.innerGRO[c.ID()]
	if eng == nil || eng.HeldCount() == 0 {
		done()
		return
	}
	items := eng.Flush()
	var run func(i int)
	run = func(i int) {
		if i < len(items) {
			rx.bridgeStage(c, items[i], func() { run(i + 1) })
			return
		}
		done()
	}
	run(0)
}

// afterAlloc runs on the NAPI core once poll+alloc are charged. With
// Falcon GRO splitting, everything from napi_gro_receive onward moves to
// a Falcon core (Section 4.2); otherwise it continues inline. The split
// applies only to TCP frames: GRO is a no-op for UDP, so moving UDP
// packets would pay the hop for nothing (the paper's Section 6.4
// observation that GRO splitting "does not take effect" for UDP).
func (rx *RxPath) afterAlloc(c *cpu.Core, s *skb.SKB, done func()) {
	if rx.Falcon != nil && rx.Falcon.GROSplitOn() && gro.TCPBytes(s) > 0 {
		if target, ok := rx.Falcon.GetCPU(s, rx.NIC.Ifindex); ok && target != c.ID() {
			// A full backlog is already counted by the stack's drop
			// counter; nothing extra to account here.
			rx.St.NetifRx(c, target, s, rx.hGRO)
			done()
			return
		}
	}
	rx.groStage(c, s, done)
}

// groStage charges napi_gro_receive. The per-byte merge work applies to
// TCP frames (segment folding + checksum); UDP and VXLAN-in-UDP outer
// frames only pay the base lookup.
func (rx *RxPath) groStage(c *cpu.Core, s *skb.SKB, done func()) {
	w := newRxWalk(rx, c, s, done)
	bytes := gro.TCPBytes(s)
	segs := s.Segs
	if segs < 1 {
		segs = 1
	}
	e := rx.St.M.Model.Get(costmodel.FnGROReceive)
	cost := sim.Time(float64(e.Base*float64(segs)) + float64(e.PerByte*float64(bytes)))
	c.Submit(stats.CtxSoftIRQ, costmodel.FnGROReceive, cost, w.afterGRO)
}

// netifStage charges netif_receive_skb and applies RPS steering — the
// first and only steering point the vanilla kernel gives a flow.
func (w *rxWalk) netifStage() {
	steps := []netdev.Step{
		{Fn: costmodel.FnNetifReceive},
		{Fn: costmodel.FnRPS},
	}
	w.rx.St.RunChain(w.c, stats.CtxSoftIRQ, steps, w.afterNetif)
}

func (w *rxWalk) steer() {
	rx, c, s := w.rx, w.c, w.s
	target := rx.RPS.CPUFor(s.Hash, c.ID())
	if target != c.ID() {
		rx.St.NetifRx(c, target, s, rx.hL3Backlog)
		w.finish()
		return
	}
	w.l3Stage()
}

// l3Backlog is the l3 stage reached through a backlog (charges the
// process_backlog poll cost first).
func (rx *RxPath) l3Backlog(c *cpu.Core, s *skb.SKB, done func()) {
	w := newRxWalk(rx, c, s, done)
	c.Exec(stats.CtxSoftIRQ, costmodel.FnBacklog, 0, w.afterL3Poll)
}

// l3Entry restarts the walk at ip_rcv — the re-entry point for
// datagrams completed by the reassembler.
func (rx *RxPath) l3Entry(c *cpu.Core, s *skb.SKB, done func()) {
	newRxWalk(rx, c, s, done).l3Stage()
}

// l3Stage runs ip_rcv and branches: IP fragments go to reassembly,
// VXLAN frames to the decapsulation path, the rest to native delivery.
func (w *rxWalk) l3Stage() {
	w.c.Exec(stats.CtxSoftIRQ, costmodel.FnIPRcv, 0, w.afterIPRcv)
}

func (w *rxWalk) l3Branch() {
	rx, s := w.rx, w.s
	if isFragment(s.Data) {
		// Cold path: release the walk and hand off to the closure-based
		// reassembler (only exercised in MTU mode).
		c, done := w.c, w.done
		w.release()
		rx.reassemble(c, s, done)
		return
	}
	if rx.Bridge != nil && s.IsVXLAN() {
		if rx.Cache != nil {
			if cost, hit := rx.Cache.Probe(w.c.ID(), s); hit {
				w.fastPath(cost)
				return
			}
			rx.Cache.Learn(w.c.ID(), s)
		}
		w.vxlanRcv()
		return
	}
	rx.HostPath.Inc()
	w.deliver()
}

// fastPath is the cache-hit continuation of the l3 branch: the frame
// decapsulates in place on the current core and goes straight to L4
// delivery, charged with the entry's cached per-stage cost sum instead
// of walking the inner stage pipeline. No stage transitions means no
// extra softirq raises and no backlog occupancy — which is the modeled
// win (and why hit-path delivery can exceed the walk's under overload:
// the skipped queues are where the walk drops).
func (w *rxWalk) fastPath(cost sim.Time) {
	rx, c, s := w.rx, w.c, w.s
	if !s.DecapVXLAN() {
		// Unreachable for a probed hit (the probe parsed the inner frame),
		// kept for parity with the walk's decap stage.
		w.drop(skb.DropDecap)
		return
	}
	s.IfIndex = rx.VXLANIf
	s.Stage("rx-cache-hit")
	rx.Decapped.Inc()
	c.Submit(stats.CtxSoftIRQ, costmodel.FnRxCacheDeliver, cost, w.afterFast)
}

// reassemble feeds an IP fragment to the host's reassembly queue
// (ip_defrag); when the datagram completes it pays the rebuild copy and
// re-enters l3 processing as a whole packet.
func (rx *RxPath) reassemble(c *cpu.Core, s *skb.SKB, done func()) {
	if rx.Reasm == nil {
		rx.Reasm = ipfrag.NewReassembler()
	}
	whole, err := rx.Reasm.Add(s.Data, s.PayLen(), rx.St.M.E.Now())
	if err != nil {
		rx.PathDrops.Inc()
		s.Drop(skb.DropReasm)
		done()
		return
	}
	if whole.Data == nil {
		// Datagram incomplete: the reassembler holds the fragment.
		s.Stage("reasm-absorbed")
		s.Free()
		done()
		return
	}
	s.SetData(whole.Data, whole.PayLen)
	// The linearization copy of the completed datagram.
	c.Exec(stats.CtxSoftIRQ, costmodel.FnSKBAlloc, s.Len(), func() {
		rx.l3Entry(c, s, done)
	})
}

// isFragment peeks at the IPv4 flags without a full dissect.
func isFragment(frame []byte) bool {
	if len(frame) < proto.EthLen+proto.IPv4Len {
		return false
	}
	flags := uint16(frame[proto.EthLen+6])<<8 | uint16(frame[proto.EthLen+7])
	return flags&0x2000 != 0 || flags&0x1FFF != 0
}

// vxlanRcv charges the outer udp_rcv plus vxlan_rcv, performs the real
// decapsulation, and ends stage 1: the packet transitions to the VXLAN
// device's stage (Falcon: on another core; vanilla: same core).
func (w *rxWalk) vxlanRcv() {
	steps := []netdev.Step{
		{Fn: costmodel.FnUDPRcv},
		{Fn: costmodel.FnVXLANRcv, Bytes: w.s.Len()},
	}
	w.rx.St.RunChain(w.c, stats.CtxSoftIRQ, steps, w.afterVxlanRcv)
}

func (w *rxWalk) decap() {
	rx, c, s := w.rx, w.c, w.s
	if !s.DecapVXLAN() {
		w.drop(skb.DropDecap)
		return
	}
	s.IfIndex = rx.VXLANIf
	s.Stage("vxlan-decap")
	rx.Decapped.Inc()
	rx.transition(c, s, rx.VXLANIf, rx.hVxlanBacklog)
	w.finish()
}

// vxlanBacklog is the VXLAN device's softirq reached through a backlog:
// gro_cell_poll picks the inner packet up, optionally GRO-merges inner
// TCP segments, then the frame crosses the bridge and veth pair.
func (rx *RxPath) vxlanBacklog(c *cpu.Core, s *skb.SKB, done func()) {
	w := newRxWalk(rx, c, s, done)
	c.Exec(stats.CtxSoftIRQ, costmodel.FnGROCellPoll, s.Len(), w.afterCellPoll)
}

func (w *rxWalk) cellPolled() {
	rx, c, s := w.rx, w.c, w.s
	if !rx.InnerGRO {
		w.bridgeChain()
		return
	}
	eng := rx.innerGRO[c.ID()]
	if eng == nil {
		eng = gro.New()
		rx.innerGRO[c.ID()] = eng
	}
	w.eng = eng
	// Charge inner GRO (per-byte for TCP only; Push ignores others).
	bytes := 0
	if isTCP(s.Data) && s.Segs == 1 {
		bytes = s.Len()
	}
	c.Exec(stats.CtxSoftIRQ, costmodel.FnGROReceive, bytes, w.afterInnerGRO)
}

func (w *rxWalk) innerMerged() {
	rx, c, eng := w.rx, w.c, w.eng
	out := eng.Push(w.s)
	// Flush at the end of the gro_cells batch (backlog drained), the
	// analogue of napi_gro_flush when the poll completes.
	if rx.St.BacklogLen(c.ID()) != 0 {
		// Mid-batch: at most the merge output continues; held segments
		// stay in the engine.
		if out == nil {
			w.finish()
			return
		}
		w.s = out
		w.bridgeChain()
		return
	}
	held := eng.HeldCount()
	if held == 0 {
		if out == nil {
			w.finish()
			return
		}
		w.s = out
		w.bridgeChain()
		return
	}
	flushed := eng.Flush()
	if out == nil && len(flushed) == 1 {
		w.s = flushed[0]
		w.bridgeChain()
		return
	}
	// Multiple packets leave the stage at once (merge output plus
	// flushed holds, in that order). Rare — batch boundaries only — so
	// the sequencing closure is acceptable here.
	c2, done := w.c, w.done
	w.release()
	items := flushed
	if out != nil {
		items = append([]*skb.SKB{out}, flushed...)
	}
	var run func(i int)
	run = func(i int) {
		if i < len(items) {
			rx.bridgeStage(c2, items[i], func() { run(i + 1) })
			return
		}
		done()
	}
	run(0)
}

// bridgeStage charges br_handle_frame, resolves the destination
// container's veth port via the FDB, charges veth_xmit, and ends stage
// 2: the packet transitions to the veth device's stage. Handler-shaped
// entry point for the flush loops.
func (rx *RxPath) bridgeStage(c *cpu.Core, s *skb.SKB, done func()) {
	newRxWalk(rx, c, s, done).bridgeChain()
}

func (w *rxWalk) bridgeChain() {
	steps := []netdev.Step{
		{Fn: costmodel.FnNetifReceive},
		{Fn: costmodel.FnBridge},
	}
	w.rx.St.RunChain(w.c, stats.CtxSoftIRQ, steps, w.afterBridge)
}

func (w *rxWalk) bridged() {
	rx, c, s := w.rx, w.c, w.s
	// The FDB lookup needs only the destination MAC: take it from the
	// cached dissect when available, falling back to the 14-byte
	// Ethernet parse for frames that don't dissect through L4.
	var dst proto.MAC
	if f, err := s.Frame(); err == nil {
		dst = f.Eth.Dst
	} else if eth, err := proto.ParseEthernet(s.Data); err == nil {
		dst = eth.Dst
	} else {
		w.drop(skb.DropBridge)
		return
	}
	veth, ok := rx.VethByMAC[dst]
	if !ok {
		rx.Bridge.Flooded.Inc()
		w.drop(skb.DropFDB)
		return
	}
	s.Stage("bridge")
	w.vethIf = veth.Ifindex
	c.Exec(stats.CtxSoftIRQ, costmodel.FnVethXmit, 0, w.afterVethXmit)
}

func (w *rxWalk) vethHop() {
	rx, c, s := w.rx, w.c, w.s
	s.IfIndex = w.vethIf
	rx.transition(c, s, w.vethIf, rx.hVeth)
	w.finish()
}

// isTCP is a cheap L4 check (IP protocol byte) without a full dissect.
func isTCP(frame []byte) bool {
	const protoOff = proto.EthLen + 9
	return len(frame) > protoOff && frame[proto.EthLen]>>4 == 4 && frame[protoOff] == proto.ProtoTCP
}

// InjectLocal delivers a frame destined to a local container without
// touching the NIC: the transmit path of same-host container-to-container
// traffic enqueues directly into the veth stage's backlog on the given
// core (netif_rx from the sender's context).
func (rx *RxPath) InjectLocal(from *cpu.Core, core int, s *skb.SKB) bool {
	return rx.St.NetifRx(from, core, s, rx.hVeth)
}

// vethBacklog is the veth stage reached through a backlog: veth is not a
// NAPI device, so process_backlog polls it (the paper's third softirq).
func (rx *RxPath) vethBacklog(c *cpu.Core, s *skb.SKB, done func()) {
	w := newRxWalk(rx, c, s, done)
	c.Exec(stats.CtxSoftIRQ, costmodel.FnBacklog, s.Len(), w.afterVethPoll)
}

// vethStage runs the container's private stack: netif_receive + ip_rcv,
// then L4 delivery.
func (w *rxWalk) vethStage() {
	steps := []netdev.Step{
		{Fn: costmodel.FnNetifReceive},
		{Fn: costmodel.FnIPRcv},
	}
	w.rx.St.RunChain(w.c, stats.CtxSoftIRQ, steps, w.afterVethChain)
}

func (w *rxWalk) vethDeliver() {
	w.deliver()
}

// transition implements the stage boundary at a device: netif_rx always
// enqueues to a per-CPU backlog and raises a softirq (so the vanilla
// overlay pays its three softirqs per packet on one core, paper Fig. 4);
// with Falcon active the target backlog is the device-hashed core
// instead of the current one (Algorithm 1, line 7).
func (rx *RxPath) transition(c *cpu.Core, s *skb.SKB, ifindex int, viaBacklog netdev.Handler) {
	target := c.ID()
	if rx.Falcon != nil {
		if t, ok := rx.Falcon.GetCPU(s, ifindex); ok {
			target = t
		}
	}
	rx.St.NetifRx(c, target, s, viaBacklog)
}
