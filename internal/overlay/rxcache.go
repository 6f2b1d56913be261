package overlay

import (
	"falcon/internal/costmodel"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
)

// rxFlowKey identifies one receive flow by its inner 5-tuple. The
// protocol is not part of the key: only UDP flows are cached (inner GRO
// coalesces TCP segments, so a TCP fast path would change the delivered
// packet population), and a protocol collision on the same 4-tuple
// simply misses through the version check when the mapping changes.
type rxFlowKey struct {
	srcIP, dstIP     proto.IPv4Addr
	srcPort, dstPort uint16
}

// rxFlowEntry is the cached outcome of one inner flow's decap walk — the
// simulation analogue of an ONCache eBPF flow-table record on the TC
// ingress hook. A hit replaces the whole inner stage pipeline (outer
// udp_rcv + vxlan_rcv, gro_cell_poll, bridge, veth_xmit, backlog and the
// second L3 traversal, plus their softirq raises) with the cached
// per-stage cost sum recorded here: the lookup and deliver bases from
// the host's cost profile, with the per-byte rewrite term applied to the
// live frame at hit time (GRO-merged frames vary in length).
//
// Entries carry the same validity stamp as the TX flow cache, so crash
// and reconfiguration runs behave identically whether eviction happens
// eagerly or on the next probe; the purge clock is checked against the
// outer source host.
type rxFlowEntry struct {
	stamp
	srcHostIP proto.IPv4Addr
	base      float64 // cached cost sum: lookup + deliver base ns
	perByte   float64 // per-byte rewrite cost applied to the inner frame
}

// rxCache is the host's per-core RX decap fast-path table. Each
// simulated core owns its own map (State-Compute-Replication style):
// cores never read another core's table, so the modeled structure is
// lock-free by construction — and since one host is one PDES logical
// process, plain maps implement it without real synchronization either.
type rxCache struct {
	h      *Host
	tables []map[rxFlowKey]*rxFlowEntry // index = simulated core ID
}

// EnableRxCache installs the ONCache-style RX decap fast path on the
// host: warm inner-UDP flows skip the decap stage walk at the l3 branch
// and deliver straight to the socket with the cached cost sum. Idempotent.
func (h *Host) EnableRxCache() {
	if h.rxCache == nil {
		h.rxCache = &rxCache{h: h, tables: make([]map[rxFlowKey]*rxFlowEntry, h.M.NumCores())}
	}
	h.Rx.Cache = h.rxCache
}

// innerUDP parses the arriving VXLAN frame's inner flow, accepting only
// complete inner UDP frames (the cacheable population).
func innerUDP(s *skb.SKB) (*proto.Frame, bool) {
	f, ok := s.VXLANInner()
	if !ok || f.IP.Protocol != proto.ProtoUDP {
		return nil, false
	}
	return f, true
}

// Probe implements devices.RxFlowCache: it looks the arriving frame's
// inner flow up in core's table and, on a valid entry, returns the
// fast-path cost to charge. Invalid entries (stale epoch, source host
// declared dead since build, version-expired outside a partition's
// staleness bound) are lazily evicted here. Probes charge no simulated
// time themselves — the lookup's cost is part of the cached sum on a
// hit, and a miss's probe models a per-core L1-resident table check
// below the simulation's cost resolution.
func (rc *rxCache) Probe(core int, s *skb.SKB) (sim.Time, bool) {
	h := rc.h
	f, ok := innerUDP(s)
	if !ok {
		h.RxCacheMisses.Inc()
		return 0, false
	}
	t := rc.tables[core]
	key := rxFlowKey{srcIP: f.IP.Src, dstIP: f.IP.Dst, srcPort: f.SrcPort(), dstPort: f.DstPort()}
	e, ok := t[key]
	if !ok {
		h.RxCacheMisses.Inc()
		return 0, false
	}
	if !h.evicted(&e.stamp, e.srcHostIP) {
		cost := sim.Time(e.base + float64(e.perByte*float64(s.Len()-proto.OverlayOverhead)))
		if h.fresh(&e.stamp) {
			h.RxCacheHits.Inc()
			return cost, true
		}
		// Version-expired: a partitioned host keeps fast-pathing on the
		// last mapping it saw for the bounded window the TX cache allows
		// (the walk it would fall into consults no KV either — staleness
		// here affects costs, not routing).
		if h.servesStale(&e.stamp) {
			h.RxCacheStale.Inc()
			return cost, true
		}
	}
	delete(t, key)
	h.RxCacheMisses.Inc()
	return 0, false
}

// Learn implements devices.RxFlowCache: after a miss fell through to the
// full walk, it records the walk's (deterministic) outcome so the flow's
// next packet fast-paths. Only frames the walk would actually deliver
// are recorded — the inner destination MAC must resolve to a local veth,
// exactly the bridge FDB condition — so a hit never delivers a packet
// the walk would have dropped.
func (rc *rxCache) Learn(core int, s *skb.SKB) {
	h := rc.h
	f, ok := innerUDP(s)
	if !ok {
		return
	}
	if _, local := h.Rx.VethByMAC[f.Eth.Dst]; !local {
		return
	}
	outer, err := s.Frame()
	if err != nil {
		return
	}
	t := rc.tables[core]
	if t == nil {
		t = make(map[rxFlowKey]*rxFlowEntry)
		rc.tables[core] = t
	}
	m := h.M.Model
	lk, dl := m.Get(costmodel.FnRxCacheLookup), m.Get(costmodel.FnRxCacheDeliver)
	key := rxFlowKey{srcIP: f.IP.Src, dstIP: f.IP.Dst, srcPort: f.SrcPort(), dstPort: f.DstPort()}
	t[key] = &rxFlowEntry{
		stamp:     h.newStamp(),
		srcHostIP: outer.IP.Src,
		base:      lk.Base + dl.Base,
		perByte:   lk.PerByte + dl.PerByte,
	}
}

// rxEntries counts RX fast-path entries across every core's table that
// survive lazy eviction (version freshness is a revalidation concern,
// not eviction). Test and stats helper —
// physical map sizes include lazily dead entries.
func (h *Host) rxEntries() int {
	if h.rxCache == nil {
		return 0
	}
	n := 0
	for _, t := range h.rxCache.tables {
		for _, e := range t {
			if !h.evicted(&e.stamp, e.srcHostIP) {
				n++
			}
		}
	}
	return n
}
