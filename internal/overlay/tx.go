package overlay

import (
	"fmt"

	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/ipfrag"
	"falcon/internal/netdev"
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

// report tells the sender whether the frame made it onto the wire.
func (p SendParams) report(ok bool) {
	if p.Done != nil {
		p.Done(ok)
	}
}

// SendUDP transmits one UDP message through the full transmit path in
// task context: container stack → veth → bridge → vxlan_xmit
// encapsulation → pNIC, or the plain host stack for host networking.
func (h *Host) SendUDP(p SendParams) {
	h.sendL4(p, proto.ProtoUDP, nil)
}

// SendTCP transmits one TCP segment with the given header. Payload bytes
// are p.Payload; ports are taken from the header.
func (h *Host) SendTCP(p SendParams, hdr proto.TCPHdr) {
	h.sendL4(p, proto.ProtoTCP, &hdr)
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

// txFlowEntry is the cached result of resolving and building one flow's
// frames — the simulation analogue of an ONCache/flow-table entry that
// amortizes the per-packet vxlan_xmit work (FIB/neighbor lookup + header
// construction) across a flow. The inner template carries IP ID 0 (and a
// zero TCP header); each packet copies the template and patches only the
// ID (+ TCP header), which produces byte-identical frames to a from-
// scratch build. Entries revalidate against the KV store's version AND
// the network's configuration generation, so both endpoint moves and
// reconfigurations that never touch the KV (steering flips, topology
// membership) invalidate them; the cache is bypassed entirely while a
// KV fault is installed (the degraded path draws RNG per lookup;
// skipping those draws would change deterministic schedules).
type txFlowEntry struct {
	kvVersion uint64
	gen       uint64
	epoch     uint64   // host cacheEpoch at build (lazy ReconcileKV)
	born      uint64   // host purgeClock at build (lazy PurgeDeadHost)
	builtAt   sim.Time // when the entry was resolved (staleness bound)
	info      EndpointInfo
	sameHost  bool
	hostNet   bool
	hash      uint32
	inner     []byte // inner frame template (IP ID 0, TCP header zero)
	outer     []byte // outer VXLAN header template (cross-host only)
}

// txOp carries one fast-path transmit through its asynchronous charge
// chain. The continuations the chain needs (after the stack steps, after
// vxlan_xmit, after the NIC doorbell) are method values cached at pool
// construction, so a steady-state send costs zero closure allocations —
// the op itself is recycled once the frame is on the wire. The degraded
// path (sendSlow) keeps its closures: it only runs inside KV fault
// windows.
type txOp struct {
	h       *Host
	core    *cpu.Core
	ctx     stats.CPUContext
	p       SendParams
	ipProto uint8
	tcp     *proto.TCPHdr
	s       *skb.SKB
	e       *txFlowEntry
	start   sim.Time // when the app handed us the payload (skb SendTime)

	afterStack func() // cached op.stackDone
	afterVXLAN func() // cached op.vxlanDone
	afterNIC   func() // cached op.nicDone (overlay wire-out)
	afterHost  func() // cached op.hostDone (host-network wire-out)

	next *txOp // host free list
}

func (h *Host) getTxOp() *txOp {
	op := h.txOps
	if op == nil {
		op = new(txOp)
		op.afterStack = op.stackDone
		op.afterVXLAN = op.vxlanDone
		op.afterNIC = op.nicDone
		op.afterHost = op.hostDone
	} else {
		h.txOps = op.next
		op.next = nil
	}
	return op
}

// finish releases the op back to the host's free list and reports the
// outcome. The op is released first: Done may immediately send another
// packet and legitimately reuse the same recycled op.
func (op *txOp) finish(ok bool) {
	h, done := op.h, op.p.Done
	op.h, op.core, op.tcp, op.s, op.e = nil, nil, nil, nil, nil
	op.p = SendParams{}
	op.next = h.txOps
	h.txOps = op
	if done != nil {
		done(ok)
	}
}

// sendL4 is the shared transmit machinery. For TCP, hdr carries the
// prebuilt TCP header (ports in hdr override p's).
func (h *Host) sendL4(p SendParams, ipProto uint8, tcp *proto.TCPHdr) {
	h.TxMsgs.Inc()
	if h.crashed {
		// The host is dead: the (schedule-driven) send is counted and
		// destroyed without charging work — dead silicon runs nothing.
		h.CrashDrops.Inc()
		p.report(false)
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
	// Fixed-size step buffer: appending to a 1-element literal reallocates
	// on every overlay send, and RunChain copies the steps anyway.
	var steps [3]netdev.Step
	steps[0] = netdev.Step{Fn: costmodel.FnTxStack, Bytes: p.Payload}
	n := 1
	if p.From != nil {
		steps[1] = netdev.Step{Fn: costmodel.FnVethXmit}
		steps[2] = netdev.Step{Fn: costmodel.FnBridge}
		n = 3
	}
	h.St.RunChain(core, ctx, steps[:n], op.afterStack)
}

// stackDone runs once the stack/veth/bridge costs are charged and picks
// the healthy or degraded resolution path.
func (op *txOp) stackDone() {
	h := op.h
	if h.crashed {
		// The host died while this message was inside the transmit path:
		// it terminates here, accounted, so Quiesced() can drain.
		h.CrashDrops.Inc()
		h.txPending--
		op.finish(false)
		return
	}
	if h.Net.KV.Fault() != nil {
		core, ctx, p, ipProto, tcp, start := op.core, op.ctx, op.p, op.ipProto, op.tcp, op.start
		op.p.Done = nil // sendSlow owns completion now
		op.finish(false)
		h.sendSlow(core, ctx, p, ipProto, tcp, start)
		return
	}
	if h.Net.KV.Partitioned(h.IP) {
		h.sendPartitioned(op)
		return
	}
	h.sendFast(op)
}

// sendFast is the healthy-path transmit: flow-cached resolution and
// template-built frames in a pooled skb with VXLAN headroom.
func (h *Host) sendFast(op *txOp) {
	e, resolved := h.txFlow(op.p, op.ipProto, op.tcp)
	if !resolved {
		h.TxResolveDrops.Inc()
		h.txPending--
		op.finish(false)
		return
	}
	if e == nil {
		// Resolved but unbuildable (payload exceeds the frame limit).
		h.TxBuildDrops.Inc()
		h.txPending--
		op.finish(false)
		return
	}
	h.transmitEntry(op, e)
}

// transmitEntry builds the frame from a resolved flow-cache entry and
// drives it out — the back half of sendFast, shared with the
// partition-tolerant path (which resolves through stale entries).
func (h *Host) transmitEntry(op *txOp, e *txFlowEntry) {
	core, ctx, p := op.core, op.ctx, op.p
	headroom := 0
	if !e.sameHost && !e.hostNet {
		headroom = proto.OverlayOverhead
	}
	s := h.Arena.NewTx(len(e.inner), headroom)
	if h.Audit != nil {
		s.Audit(h.Audit, "tx:fast")
	}
	h.txPending--
	copy(s.Data, e.inner)
	if op.tcp != nil {
		proto.PutTCP(s.Data[proto.EthLen+proto.IPv4Len:], *op.tcp)
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
		core.Exec(ctx, costmodel.FnTxNIC, 0, op.afterHost)
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
	core.Exec(ctx, costmodel.FnVXLANXmit, len(s.Data), op.afterVXLAN)
}

// hostDone wires out a host-network frame after the NIC doorbell.
func (op *txOp) hostDone() {
	h := op.h
	op.finish(h.sendWire(op.core, op.ctx, op.s, op.p.DstIP))
}

// vxlanDone encapsulates in place once vxlan_xmit is charged, then
// charges the NIC doorbell.
func (op *txOp) vxlanDone() {
	s, h := op.s, op.h
	s.Push(proto.OverlayOverhead)
	copy(s.Data[:proto.OverlayOverhead], op.e.outer)
	proto.PatchIPv4ID(s.Data, h.nextIPID())
	op.core.Exec(op.ctx, costmodel.FnTxNIC, 0, op.afterNIC)
}

// nicDone wires out an encapsulated frame after the NIC doorbell.
func (op *txOp) nicDone() {
	h := op.h
	op.finish(h.sendWire(op.core, op.ctx, op.s, op.e.info.HostIP))
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

// txLookup returns the entry under key in core's table if it survives
// lazy eviction: entries invalidated by ReconcileKV (stale epoch) or by
// a PurgeDeadHost declared after they were built are deleted here, on
// touch, instead of by scanning the tables at invalidation time.
// (kvVersion, gen) freshness is deliberately NOT checked — the
// partitioned path serves version-expired entries within its staleness
// bound.
func (h *Host) txLookup(core int, key txFlowKey) (*txFlowEntry, bool) {
	t := h.flowCaches[core]
	if t == nil {
		return nil, false
	}
	e, ok := t[key]
	if !ok {
		return nil, false
	}
	// For host-network entries info.HostIP is the addressed host itself,
	// so one condition covers both shapes the eager purge matched.
	if e.epoch != h.cacheEpoch || h.deadAt[e.info.HostIP] > e.born {
		delete(t, key)
		return nil, false
	}
	return e, true
}

// txEntries counts TX flow-cache entries across every core's table that
// survive lazy eviction (epoch and dead-host purge; version freshness
// is a revalidation concern, not eviction). Test and stats helper —
// physical map sizes include lazily dead entries.
func (h *Host) txEntries() int {
	n := 0
	for _, t := range h.flowCaches {
		for _, e := range t {
			if e.epoch == h.cacheEpoch && h.deadAt[e.info.HostIP] <= e.born {
				n++
			}
		}
	}
	return n
}

// txFlow returns the flow-cache entry for p, building and caching it on
// first use or after a KV mutation. resolved is false when the
// destination cannot be resolved (the caller counts the drop); a nil
// entry with resolved true means the flow is resolvable but unbuildable.
func (h *Host) txFlow(p SendParams, ipProto uint8, tcp *proto.TCPHdr) (e *txFlowEntry, resolved bool) {
	key := txFlowKey{from: p.From, dstIP: p.DstIP, ipProto: ipProto, payload: p.Payload}
	if tcp != nil {
		key.srcPort, key.dstPort = tcp.SrcPort, tcp.DstPort
	} else {
		key.srcPort, key.dstPort = p.SrcPort, p.DstPort
	}
	ver, gen := h.Net.KV.Version(), h.Net.Generation()
	if e, ok := h.txLookup(p.Core, key); ok && e.kvVersion == ver && e.gen == gen {
		return e, true
	}
	e = &txFlowEntry{kvVersion: ver, gen: gen, builtAt: h.E.Now(),
		epoch: h.cacheEpoch, born: h.purgeClock}
	if p.From == nil {
		peer := h.Net.hostByIP(p.DstIP)
		if peer == nil {
			return nil, false
		}
		e.info = EndpointInfo{HostIP: p.DstIP, HostMAC: peer.MAC}
		e.hostNet = true
	} else {
		info, err := h.Net.KV.Get(p.DstIP)
		if err != nil {
			return nil, false
		}
		e.info = info
		e.sameHost = info.HostIP == h.IP
	}
	limit := MaxHostPayload
	if p.From != nil {
		limit = MaxOverlayPayload
	}
	if p.Payload > limit {
		return nil, true
	}
	payload := make([]byte, key.payload)
	srcMAC, srcIP := h.MAC, h.IP
	dstMAC := e.info.HostMAC
	if p.From != nil {
		srcMAC, srcIP = p.From.MAC, p.From.IP
		dstMAC = e.info.ContainerMAC
	}
	if ipProto == proto.ProtoTCP {
		e.inner = proto.BuildTCPFrame(srcMAC, dstMAC, srcIP, p.DstIP, proto.TCPHdr{}, 0, payload)
	} else {
		e.inner = proto.BuildUDPFrame(srcMAC, dstMAC, srcIP, p.DstIP, key.srcPort, key.dstPort, 0, payload)
	}
	e.hash = skb.FlowKey{SrcIP: srcIP, DstIP: p.DstIP,
		SrcPort: key.srcPort, DstPort: key.dstPort, Proto: ipProto}.Hash()
	if !e.sameHost && !e.hostNet {
		entropy := uint16(49152 + (e.hash % 16384))
		e.outer = make([]byte, proto.OverlayOverhead)
		proto.PutEncapHeaders(e.outer, h.MAC, e.info.HostMAC, h.IP, e.info.HostIP,
			entropy, h.Net.VNI, 0, len(e.inner))
	}
	h.txCache(p.Core)[key] = e
	return e, true
}

// sendSlow is the degraded-path transmit, taken while a KV lookup fault
// is installed: per-packet resolution with backoff retries and negative
// caching, frames built from scratch. It deliberately bypasses the flow
// cache in both directions — reads would skip the fault's RNG draws and
// writes would survive past the fault window — so chaos schedules stay
// byte-identical to the pre-cache simulator.
func (h *Host) sendSlow(core *cpu.Core, ctx stats.CPUContext, p SendParams, ipProto uint8, tcp *proto.TCPHdr, start sim.Time) {
	h.resolve(p, func(info EndpointInfo, ok bool) {
		if !ok {
			h.TxResolveDrops.Inc()
			h.txPending--
			p.report(false)
			return
		}
		inner, err := h.buildInner(p, ipProto, tcp, info)
		if err != nil {
			h.TxBuildDrops.Inc()
			h.txPending--
			p.report(false)
			return
		}
		s := skb.New(inner)
		if h.Audit != nil {
			s.Audit(h.Audit, "tx:slow")
		}
		h.txPending--
		s.FlowID = p.FlowID
		s.Seq = p.Seq
		s.SendTime = start
		if err := s.SetFlowHash(); err != nil {
			s.Drop(skb.DropTxFrame)
			p.report(false)
			return
		}
		if p.From == nil {
			// Host networking: straight out the NIC.
			core.Exec(ctx, costmodel.FnTxNIC, 0, func() {
				p.report(h.sendWire(core, ctx, s, p.DstIP))
			})
			return
		}
		if info.HostIP == h.IP {
			// Same-host container: the bridge forwards locally; the frame
			// enters the destination's veth backlog without encapsulation.
			s.WireTime = h.E.Now()
			p.report(h.Rx.InjectLocal(nil, p.Core, s))
			return
		}
		// Cross-host: encapsulate and transmit.
		core.Exec(ctx, costmodel.FnVXLANXmit, len(inner), func() {
			entropy := uint16(49152 + (s.Hash % 16384))
			outer := proto.Encapsulate(inner, h.MAC, info.HostMAC, h.IP, info.HostIP,
				entropy, h.Net.VNI, h.nextIPID())
			s.SetData(outer)
			core.Exec(ctx, costmodel.FnTxNIC, 0, func() {
				p.report(h.sendWire(core, ctx, s, info.HostIP))
			})
		})
	})
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

// sendPartitioned is the split-brain transmit path, taken while this
// host is marked partitioned from the KV control plane. Fresh cache
// entries transmit normally; version-expired entries within
// PartitionStaleBound serve stale; misses cannot consult the KV and
// retry with the same deterministic backoff schedule as the degraded
// path, resolving for real only if the partition heals mid-retry. Cold
// path — closures are acceptable here, as in sendSlow.
func (h *Host) sendPartitioned(op *txOp) {
	p := op.p
	if p.From == nil {
		// Host networking resolves through the local link map, not the
		// KV: the partition does not apply.
		h.sendFast(op)
		return
	}
	key := txFlowKey{from: p.From, dstIP: p.DstIP, ipProto: op.ipProto, payload: p.Payload}
	if op.tcp != nil {
		key.srcPort, key.dstPort = op.tcp.SrcPort, op.tcp.DstPort
	} else {
		key.srcPort, key.dstPort = p.SrcPort, p.DstPort
	}
	ver, gen := h.Net.KV.Version(), h.Net.Generation()
	if e, ok := h.txLookup(p.Core, key); ok {
		fresh := e.kvVersion == ver && e.gen == gen
		if fresh || h.E.Now()-e.builtAt <= PartitionStaleBound {
			if !fresh {
				h.StaleServes.Inc()
			}
			h.transmitEntry(op, e)
			return
		}
		delete(h.flowCaches[p.Core], key)
	}
	core, ctx, ipProto, tcp, start := op.core, op.ctx, op.ipProto, op.tcp, op.start
	op.p.Done = nil // the retry loop owns completion now
	op.finish(false)
	if ne, ok := h.negCache[p.DstIP]; ok {
		if ne.epoch == h.cacheEpoch && h.E.Now() < ne.until && ne.kvVersion == ver {
			h.NegCacheHits.Inc()
			h.TxResolveDrops.Inc()
			h.txPending--
			p.report(false)
			return
		}
		delete(h.negCache, p.DstIP)
	}
	attempt := 0
	var try func()
	try = func() {
		if h.crashed {
			h.CrashDrops.Inc()
			h.txPending--
			p.report(false)
			return
		}
		if !h.Net.KV.Partitioned(h.IP) {
			// Healed mid-retry: resolve for real through the uncached
			// degraded path (the caches were reconciled on heal).
			h.sendSlow(core, ctx, p, ipProto, tcp, start)
			return
		}
		if attempt >= kvMaxRetries {
			h.TxResolveDrops.Inc()
			h.negMiss(p.DstIP)
			h.txPending--
			p.report(false)
			return
		}
		backoff := kvRetryBase << attempt
		attempt++
		h.KVRetries.Inc()
		h.E.After(backoff, try)
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

// resolve produces the EndpointInfo for p's destination and calls cont
// exactly once. On the healthy path it is fully synchronous (cont runs
// inline, zero extra simulation events). With a KV lookup fault
// installed, container resolutions pay the injected latency, retry
// transient failures with exponential backoff, and negative-cache
// definitive misses instead of erroring straight out.
func (h *Host) resolve(p SendParams, cont func(EndpointInfo, bool)) {
	if p.From == nil {
		// Host networking: resolve the peer host's MAC via the link map.
		peer := h.Net.hostByIP(p.DstIP)
		if peer == nil {
			cont(EndpointInfo{}, false)
			return
		}
		cont(EndpointInfo{HostIP: p.DstIP, HostMAC: peer.MAC}, true)
		return
	}
	flt := h.Net.KV.Fault()
	if flt == nil {
		info, err := h.Net.KV.Get(p.DstIP)
		cont(info, err == nil)
		return
	}
	if ne, ok := h.negCache[p.DstIP]; ok {
		if ne.epoch == h.cacheEpoch && h.E.Now() < ne.until && ne.kvVersion == h.Net.KV.Version() {
			h.NegCacheHits.Inc()
			cont(EndpointInfo{}, false)
			return
		}
		delete(h.negCache, p.DstIP)
	}
	attempt := 0
	var try func()
	try = func() {
		delay, fail := flt.Lookup(h.IP, p.DstIP)
		after := func() {
			if fail {
				if attempt >= kvMaxRetries {
					cont(EndpointInfo{}, false)
					return
				}
				backoff := kvRetryBase << attempt
				attempt++
				h.KVRetries.Inc()
				h.E.After(backoff, try)
				return
			}
			info, err := h.Net.KV.Get(p.DstIP)
			if err != nil {
				h.negMiss(p.DstIP)
				cont(EndpointInfo{}, false)
				return
			}
			cont(info, true)
		}
		if delay > 0 {
			h.E.After(delay, after)
		} else {
			after()
		}
	}
	try()
}

// MaxOverlayPayload is the largest L4 payload a container can send in
// one frame: IPv4's 16-bit total length must also fit the VXLAN
// encapsulation overhead. (The testbed models jumbo/GSO frames rather
// than IP fragmentation, so "64 KB" experiments use payloads under this
// cap; see DESIGN.md.)
const MaxOverlayPayload = 65535 - proto.IPv4Len - proto.UDPLen - proto.OverlayOverhead

// MaxHostPayload is the host-network equivalent.
const MaxHostPayload = 65535 - proto.IPv4Len - proto.UDPLen

// buildInner constructs the L2–L4 frame for an already-resolved
// destination. For container senders the inner MACs come from the KV
// entry; for host networking from the peer host.
func (h *Host) buildInner(p SendParams, ipProto uint8, tcp *proto.TCPHdr, info EndpointInfo) ([]byte, error) {
	limit := MaxHostPayload
	if p.From != nil {
		limit = MaxOverlayPayload
	}
	if p.Payload > limit {
		return nil, fmt.Errorf("overlay: payload %d exceeds frame limit %d", p.Payload, limit)
	}
	payload := make([]byte, p.Payload)
	srcMAC, srcIP := h.MAC, h.IP
	dstMAC := info.HostMAC
	if p.From != nil {
		srcMAC, srcIP = p.From.MAC, p.From.IP
		dstMAC = info.ContainerMAC
	}
	if ipProto == proto.ProtoTCP {
		return proto.BuildTCPFrame(srcMAC, dstMAC, srcIP, p.DstIP, *tcp, h.nextIPID(), payload), nil
	}
	return proto.BuildUDPFrame(srcMAC, dstMAC, srcIP, p.DstIP,
		p.SrcPort, p.DstPort, h.nextIPID(), payload), nil
}

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
	parts, err := ipfrag.Fragment(s.Data, l.MTU)
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
			fs = skb.New(part)
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
		// Fragment copies are on the wire; the original frame is done.
		s.Stage("tx:fragmented")
		s.Free()
	}
	return ok
}

func (h *Host) nextIPID() uint16 {
	h.txSeq++
	return h.txSeq
}
