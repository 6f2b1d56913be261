package overlay

import (
	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/ipfrag"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

// SendParams describes one message transmission.
type SendParams struct {
	// From is the sending container; nil sends over the host network.
	From    *Container
	SrcPort uint16
	DstIP   proto.IPv4Addr
	DstPort uint16
	// Payload is the message size in bytes.
	Payload int
	// Core is the core the sending task runs on.
	Core int
	// FlowID and Seq instrument delivery-order verification.
	FlowID, Seq uint64
	// Done, if non-nil, reports whether the frame made it onto the wire
	// (false: resolution failure or transmit-queue drop).
	Done func(ok bool)
	// FromSoftirq charges the transmit work in softirq context instead
	// of task context — how the kernel emits TCP ACKs from tcp_v4_rcv.
	FromSoftirq bool
}

// SendUDP transmits one UDP message through the full transmit path in
// task context: container stack → veth → bridge → vxlan_xmit
// encapsulation → pNIC, or the plain host stack for host networking.
func (h *Host) SendUDP(p SendParams) {
	h.sendL4(p, proto.ProtoUDP, proto.TCPHdr{})
}

// SendTCP transmits one TCP segment with the given header. Payload bytes
// are p.Payload; ports are taken from the header.
func (h *Host) SendTCP(p SendParams, hdr proto.TCPHdr) {
	h.sendL4(p, proto.ProtoTCP, hdr)
}

// txFlowKey identifies one transmit flow shape: everything that
// determines the frame bytes except the per-packet IP ID and TCP header.
type txFlowKey struct {
	from             *Container
	dstIP            proto.IPv4Addr
	srcPort, dstPort uint16
	ipProto          uint8
	payload          int
}

// txFlowEntry is one flow's resolved destination and frame templates —
// the simulation analogue of an ONCache/flow-table entry that amortizes
// the per-packet vxlan_xmit work (FIB/neighbor lookup + header
// construction) across a flow. The templates are headers only: the
// inner one carries IP ID 0 (and a zero TCP header); each packet copies
// it and patches only the ID (+ TCP header), which produces
// byte-identical frames to a from-scratch build. Every send resolves to
// an entry: healthy sends through the per-core flow cache, degraded
// container sends (KV fault, or a partition the cache cannot serve)
// through an uncached one.
type txFlowEntry struct {
	stamp
	info     EndpointInfo
	sameHost bool
	hostNet  bool
	hash     uint32
	inner    []byte // inner headers template (IP ID 0, TCP header zero)
	outer    []byte // outer VXLAN header template (cross-host only)
}

// txPhase is where a txOp's charge chain resumes when its current CPU
// slice completes.
type txPhase uint8

const (
	txStack txPhase = iota // charging the stack steps (stack, veth, bridge)
	txVXLAN                // vxlan_xmit charged: encapsulate, ring the NIC
	txWire                 // NIC doorbell charged: put the frame on the wire
)

// txOp carries one transmit through its asynchronous charge chain. Every
// CPU slice of the chain continues through resume, the op's advance
// method value cached when the op is first made, and phase says where to
// go on; so a steady-state send costs zero closure allocations — the op
// itself is recycled once the frame is on the wire or counted as a drop.
// Degraded resolution (sendDegraded) keeps its closures: it only runs
// inside KV fault and partition windows.
type txOp struct {
	h       *Host
	core    *cpu.Core
	ctx     stats.CPUContext
	p       SendParams
	ipProto uint8
	tcp     proto.TCPHdr // the segment's header when ipProto is TCP
	s       *skb.SKB
	e       *txFlowEntry
	start   sim.Time // when the app handed us the payload (skb SendTime)

	phase  txPhase
	step   int    // stack steps charged so far
	resume func() // cached op.advance

	next *txOp // host free list
}

func (h *Host) getTxOp() *txOp {
	op := h.txOps
	if op == nil {
		op = new(txOp)
		op.resume = op.advance
	} else {
		h.txOps = op.next
		op.next = nil
	}
	return op
}

// txStackSteps are the transmit path's stack steps: the socket and IP
// stack (charged at the payload length), then, for a container send, its
// veth and the bridge.
var txStackSteps = [...]costmodel.Func{costmodel.FnTxStack, costmodel.FnVethXmit, costmodel.FnBridge}

// advance continues op after the CPU slice it was waiting on.
func (op *txOp) advance() {
	switch op.phase {
	case txStack:
		n := 1
		if op.p.From != nil {
			n = len(txStackSteps)
		}
		if op.step == n {
			op.stackDone()
			return
		}
		bytes := 0
		if op.step == 0 {
			bytes = op.p.Payload
		}
		fn := txStackSteps[op.step]
		op.step++
		op.core.Exec(op.ctx, fn, bytes, op.resume)
	case txVXLAN:
		op.vxlanDone()
	case txWire:
		// A host-network entry's HostIP is the addressed host itself.
		op.finish(op.h.sendWire(op.core, op.ctx, op.s, op.e.info.HostIP))
	}
}

// finish releases the op back to the host's free list and reports the
// outcome. The op is released first: Done may immediately send another
// packet and legitimately reuse the same recycled op.
func (op *txOp) finish(ok bool) {
	h, done := op.h, op.p.Done
	op.h, op.core, op.s, op.e = nil, nil, nil, nil
	op.p = SendParams{}
	op.next = h.txOps
	h.txOps = op
	if done != nil {
		done(ok)
	}
}

// abort ends a send that never became an SKB, counted in drops.
func (op *txOp) abort(drops *stats.Counter) {
	drops.Inc()
	op.h.txPending--
	op.finish(false)
}

// key is op's flow-cache key.
func (op *txOp) key() txFlowKey {
	k := txFlowKey{from: op.p.From, dstIP: op.p.DstIP, ipProto: op.ipProto, payload: op.p.Payload,
		srcPort: op.p.SrcPort, dstPort: op.p.DstPort}
	if op.ipProto == proto.ProtoTCP {
		k.srcPort, k.dstPort = op.tcp.SrcPort, op.tcp.DstPort
	}
	return k
}

// sendL4 is the shared transmit machinery. For TCP, tcp is the prebuilt
// TCP header (its ports override p's); UDP passes the zero header.
func (h *Host) sendL4(p SendParams, ipProto uint8, tcp proto.TCPHdr) {
	h.TxMsgs.Inc()
	if h.crashed {
		// The host is dead: the (schedule-driven) send is counted and
		// destroyed without charging work — dead silicon runs nothing.
		h.CrashDrops.Inc()
		if p.Done != nil {
			p.Done(false)
		}
		return
	}
	h.txPending++
	core := h.M.Core(p.Core)
	ctx := stats.CtxTask
	if p.FromSoftirq {
		ctx = stats.CtxSoftIRQ
	}
	op := h.getTxOp()
	op.h, op.core, op.ctx, op.p, op.ipProto, op.tcp = h, core, ctx, p, ipProto, tcp
	op.start = h.E.Now()
	op.phase, op.step = txStack, 0
	op.advance()
}

// stackDone runs once the stack/veth/bridge costs are charged and
// resolves the send to a flow entry. A container send under a KV lookup
// fault bypasses the flow cache in both directions: reads would skip
// the fault's per-lookup RNG draws and writes would outlive the fault
// window. Every other send goes through the cache (txFlow).
func (op *txOp) stackDone() {
	h := op.h
	if h.crashed {
		// The host died while this message was inside the transmit path:
		// it terminates here, accounted, so Quiesced() can drain.
		op.abort(&h.CrashDrops)
		return
	}
	if op.p.From != nil && h.Net.KV.Fault() != nil {
		h.sendDegraded(op)
		return
	}
	h.txFlow(op)
}

// txFlow transmits op on its flow-cache entry, resolving, building and
// caching the entry on first use or after it expired. Host networking
// resolves the peer through the local link map and never consults the
// KV, so a partition does not change its path; a container send the
// cache cannot serve on a partitioned host takes sendDegraded.
func (h *Host) txFlow(op *txOp) {
	p := op.p
	if e := h.txLookup(p.Core, op.key()); e != nil {
		h.transmitEntry(op, e)
		return
	}
	var info EndpointInfo
	if p.From == nil {
		peer := h.Net.hostByIP(p.DstIP)
		if peer == nil {
			op.abort(&h.TxResolveDrops)
			return
		}
		info = EndpointInfo{HostIP: p.DstIP, HostMAC: peer.MAC}
	} else if h.Net.KV.Partitioned(h.IP) {
		h.sendDegraded(op)
		return
	} else {
		var err error
		if info, err = h.Net.KV.Get(p.DstIP); err != nil {
			op.abort(&h.TxResolveDrops)
			return
		}
	}
	h.sendResolved(op, info, true)
}

// sendResolved builds op's flow entry toward info, caching it when
// cache is set, and transmits it. A payload over the frame limit is
// resolvable but unbuildable: a build drop.
func (h *Host) sendResolved(op *txOp, info EndpointInfo, cache bool) {
	e := h.newTxEntry(op, info)
	if e == nil {
		op.abort(&h.TxBuildDrops)
		return
	}
	if cache {
		h.txCache(op.p.Core)[op.key()] = e
	}
	h.transmitEntry(op, e)
}

// TxSite is the audit ledger's allocation site of every SKB an L4 send
// creates: transmitEntry's.
const TxSite = "tx:send"

// transmitEntry builds the frame from a resolved flow entry and drives
// it out. It is the one place an L4 send becomes an SKB.
func (h *Host) transmitEntry(op *txOp, e *txFlowEntry) {
	core, ctx, p := op.core, op.ctx, op.p
	headroom := 0
	if !e.sameHost && !e.hostNet {
		headroom = proto.OverlayOverhead
	}
	s := h.Arena.NewTx(len(e.inner), p.Payload, headroom)
	if h.Audit != nil {
		s.Audit(h.Audit, TxSite)
	}
	h.txPending--
	copy(s.Data, e.inner)
	if op.ipProto == proto.ProtoTCP {
		proto.PutTCP(s.Data[proto.EthLen+proto.IPv4Len:], op.tcp)
	}
	proto.PatchIPv4ID(s.Data, h.nextIPID())
	s.FlowID = p.FlowID
	s.Seq = p.Seq
	s.SendTime = op.start
	s.Hash = e.hash
	s.HashValid = true
	op.s, op.e = s, e
	if e.hostNet {
		// Host networking: straight out the NIC.
		op.phase = txWire
		core.Exec(ctx, costmodel.FnTxNIC, 0, op.resume)
		return
	}
	if e.sameHost {
		// Same-host container: the bridge forwards locally; the frame
		// enters the destination's veth backlog without encapsulation.
		s.WireTime = h.E.Now()
		op.finish(h.Rx.InjectLocal(nil, p.Core, s))
		return
	}
	// Cross-host: encapsulate in place (skb_push into the headroom) and
	// transmit.
	op.phase = txVXLAN
	core.Exec(ctx, costmodel.FnVXLANXmit, s.Len(), op.resume)
}

// vxlanDone encapsulates in place once vxlan_xmit is charged, then
// charges the NIC doorbell.
func (op *txOp) vxlanDone() {
	s, h := op.s, op.h
	s.Push(proto.OverlayOverhead)
	copy(s.Data[:proto.OverlayOverhead], op.e.outer)
	proto.PatchIPv4ID(s.Data, h.nextIPID())
	op.phase = txWire
	op.core.Exec(op.ctx, costmodel.FnTxNIC, 0, op.resume)
}

// txCache returns core's TX flow table, creating it on first use. One
// map per simulated core: the sending core owns its table outright, so
// cores never contend on shared cache state.
func (h *Host) txCache(core int) map[txFlowKey]*txFlowEntry {
	t := h.flowCaches[core]
	if t == nil {
		t = make(map[txFlowKey]*txFlowEntry)
		h.flowCaches[core] = t
	}
	return t
}

// txLookup returns the entry under key in core's table if it may be
// served: not evicted, and fresh or — for a container flow on a
// partitioned host — stale within PartitionStaleBound (counted in
// StaleServes). Any other entry is deleted here, on touch, instead of
// by scanning the tables at invalidation time.
func (h *Host) txLookup(core int, key txFlowKey) *txFlowEntry {
	t := h.flowCaches[core]
	e := t[key]
	if e == nil {
		return nil
	}
	// For host-network entries info.HostIP is the addressed host itself,
	// so one eviction rule covers both shapes.
	if !h.evicted(&e.stamp, e.info.HostIP) {
		if h.fresh(&e.stamp) {
			return e
		}
		if !e.hostNet && h.servesStale(&e.stamp) {
			h.StaleServes.Inc()
			return e
		}
	}
	delete(t, key)
	return nil
}

// txEntries counts TX flow-cache entries across every core's table that
// survive lazy eviction (version freshness is a revalidation concern,
// not eviction). Test and stats helper — physical map sizes include
// lazily dead entries.
func (h *Host) txEntries() int {
	n := 0
	for _, t := range h.flowCaches {
		for _, e := range t {
			if !h.evicted(&e.stamp, e.info.HostIP) {
				n++
			}
		}
	}
	return n
}

// newTxEntry builds op's flow entry toward info: the inner headers
// template, the flow hash and, cross-host, the outer VXLAN headers. It
// returns nil when the payload exceeds the frame limit.
func (h *Host) newTxEntry(op *txOp, info EndpointInfo) *txFlowEntry {
	p := op.p
	limit := MaxHostPayload
	if p.From != nil {
		limit = MaxOverlayPayload
	}
	if p.Payload > limit {
		return nil
	}
	e := &txFlowEntry{stamp: h.newStamp(), info: info, hostNet: p.From == nil}
	e.sameHost = !e.hostNet && info.HostIP == h.IP
	key := op.key()
	srcMAC, srcIP := h.MAC, h.IP
	dstMAC := info.HostMAC
	if p.From != nil {
		srcMAC, srcIP = p.From.MAC, p.From.IP
		dstMAC = info.ContainerMAC
	}
	if op.ipProto == proto.ProtoTCP {
		e.inner = proto.BuildTCPFrame(srcMAC, dstMAC, srcIP, p.DstIP, proto.TCPHdr{}, 0, p.Payload)
	} else {
		e.inner = proto.BuildUDPFrame(srcMAC, dstMAC, srcIP, p.DstIP, key.srcPort, key.dstPort, 0, p.Payload)
	}
	e.hash = skb.FlowKey{SrcIP: srcIP, DstIP: p.DstIP,
		SrcPort: key.srcPort, DstPort: key.dstPort, Proto: op.ipProto}.Hash()
	if !e.sameHost && !e.hostNet {
		entropy := uint16(49152 + (e.hash % 16384))
		e.outer = make([]byte, proto.OverlayOverhead)
		proto.PutEncapHeaders(e.outer, h.MAC, info.HostMAC, h.IP, info.HostIP,
			entropy, VNI, 0, len(e.inner)+p.Payload)
	}
	return e
}

// KV-resolution resilience parameters: transiently failed lookups retry
// with exponential backoff; definitive misses enter a negative cache so
// a burst toward an unknown IP does not hammer the control plane.
const (
	// kvRetryBase is the first retry's backoff; each further attempt
	// doubles it.
	kvRetryBase = 20 * sim.Microsecond
	// kvMaxRetries bounds resolution attempts per packet.
	kvMaxRetries = 4
	// NegCacheTTL is how long a definitive KV miss suppresses further
	// lookups of the same IP.
	NegCacheTTL = 2 * sim.Millisecond
	// PartitionStaleBound bounds how old a version-expired flow-cache
	// entry a control-plane-partitioned host may keep serving: within
	// the bound the host transmits on the last mapping it saw (counted
	// in StaleServes — the frame may land on a corpse, where it dies
	// accounted); beyond it the host treats the flow as unresolvable and
	// falls into retry/backoff until the partition heals.
	PartitionStaleBound = 5 * sim.Millisecond
)

// sendDegraded resolves a container send the flow cache did not serve
// while the control plane is degraded, and transmits it on an uncached
// entry. A KV lookup fault takes precedence over a partition and is
// captured at the start: each attempt pays its latency and RNG draw,
// and a successful one reads the KV, where a miss is definitive and
// negative-cached. A partitioned host cannot consult the KV, so its
// attempts fail until the partition heals, which restarts resolution
// here: with the control plane healthy, one direct lookup whose miss is
// not negative-cached. Faults and partitions share one negative-cache
// check and one backoff loop; only a partition's exhausted retries
// negative-cache the destination. The host's crash is checked at every
// step: a send whose host died mid-resolution is a crash drop.
func (h *Host) sendDegraded(op *txOp) {
	dst := op.p.DstIP
	flt := h.Net.KV.Fault()
	if flt == nil && !h.Net.KV.Partitioned(h.IP) {
		info, err := h.Net.KV.Get(dst)
		if err != nil {
			op.abort(&h.TxResolveDrops)
			return
		}
		h.sendResolved(op, info, false)
		return
	}
	if ne, ok := h.negCache[dst]; ok {
		if ne.epoch == h.cacheEpoch && h.E.Now() < ne.until && ne.kvVersion == h.Net.KV.Version() {
			h.NegCacheHits.Inc()
			op.abort(&h.TxResolveDrops)
			return
		}
		delete(h.negCache, dst)
	}
	attempt := 0
	fail := true
	var try, settle func()
	try = func() {
		if h.crashed {
			op.abort(&h.CrashDrops)
			return
		}
		var delay sim.Time
		if flt != nil {
			delay, fail = flt.Lookup(h.IP, dst)
		} else if !h.Net.KV.Partitioned(h.IP) {
			h.sendDegraded(op) // healed mid-retry
			return
		}
		if delay > 0 {
			h.E.After(delay, settle)
			return
		}
		settle()
	}
	settle = func() {
		if h.crashed {
			op.abort(&h.CrashDrops)
			return
		}
		if fail {
			if attempt >= kvMaxRetries {
				if flt == nil {
					h.negMiss(dst)
				}
				op.abort(&h.TxResolveDrops)
				return
			}
			backoff := kvRetryBase << attempt
			attempt++
			h.KVRetries.Inc()
			h.E.After(backoff, try)
			return
		}
		info, err := h.Net.KV.Get(dst)
		if err != nil {
			h.negMiss(dst)
			op.abort(&h.TxResolveDrops)
			return
		}
		h.sendResolved(op, info, false)
	}
	try()
}

// negEntry is one negative-cache record: a definitive KV miss suppresses
// lookups of the same IP until the TTL expires OR the KV store mutates.
// The version pin matters during reconfiguration: a miss recorded while
// a container is in transit between hosts must not outlive the Put that
// lands it on its new host, or the sender would keep blackholing traffic
// for up to a full TTL after the mapping recovered. The epoch pin makes
// ReconcileKV's O(1) bump cover this cache too (heals don't always move
// the KV version).
type negEntry struct {
	until     sim.Time
	kvVersion uint64
	epoch     uint64
}

// negMiss records a definitive KV miss for ip in the negative cache.
func (h *Host) negMiss(ip proto.IPv4Addr) {
	h.negCache[ip] = negEntry{until: h.E.Now() + NegCacheTTL, kvVersion: h.Net.KV.Version(), epoch: h.cacheEpoch}
}

// MaxOverlayPayload is the largest L4 payload a container can send in
// one frame: IPv4's 16-bit total length must also fit the VXLAN
// encapsulation overhead. (The testbed models jumbo/GSO frames rather
// than IP fragmentation, so "64 KB" experiments use payloads under this
// cap; see DESIGN.md.)
const MaxOverlayPayload = 65535 - proto.IPv4Len - proto.UDPLen - proto.OverlayOverhead

// MaxHostPayload is the host-network equivalent.
const MaxHostPayload = 65535 - proto.IPv4Len - proto.UDPLen

// sendWire puts the frame on the link toward dstHostIP, fragmenting to
// the link MTU when one is configured. Fragments inherit the skb's flow
// identity; they pay per-fragment NIC transmit cost.
func (h *Host) sendWire(core *cpu.Core, ctx stats.CPUContext, s *skb.SKB, dstHostIP proto.IPv4Addr) bool {
	l := h.links[dstHostIP]
	if l == nil {
		s.Drop(skb.DropTxRoute)
		return false
	}
	if l.MTU <= 0 {
		return l.Send(s)
	}
	parts, err := ipfrag.Fragment(s.Data, s.PayLen(), l.MTU)
	if err != nil {
		s.Drop(skb.DropTxFrag)
		return false
	}
	if len(parts) > 1 {
		// The first fragment's doorbell was already charged; the rest
		// cost one FnTxNIC each.
		cost := h.M.Model.Cost(costmodel.FnTxNIC, 0) * sim.Time(len(parts)-1)
		core.Submit(ctx, costmodel.FnTxNIC, cost, nil)
	}
	ok := true
	for i, part := range parts {
		fs := s
		if i > 0 || len(parts) > 1 {
			fs = skb.New(part.Data, part.PayLen)
			if h.Audit != nil {
				fs.Audit(h.Audit, "tx:frag")
			}
			fs.FlowID = s.FlowID
			fs.Seq = s.Seq
			fs.SendTime = s.SendTime
			_ = fs.SetFlowHash()
		}
		if !l.Send(fs) {
			ok = false
		}
	}
	if len(parts) > 1 {
		// The fragments are on the wire; the original frame is done.
		s.Stage("tx:fragmented")
		s.Free()
	}
	return ok
}

func (h *Host) nextIPID() uint16 {
	h.txSeq++
	return h.txSeq
}
