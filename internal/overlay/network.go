package overlay

import (
	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
)

// VNI is the VXLAN network identifier of every overlay.
const VNI = 42

// Network is a set of hosts joined by point-to-point links and one
// overlay (VXLAN) segment backed by a shared KV store. E is the whole
// simulation — a serial *sim.Engine or a multi-shard *sim.Cluster; each
// host additionally pins to one shard engine (Host.E) chosen by
// HostConfig.Shard, and every object a host owns schedules there.
type Network struct {
	E  sim.Sim
	KV *KVStore

	hosts []*Host

	// gen is the configuration generation: 0 is the construction-time
	// configuration, and every reconfiguration action applied by
	// internal/reconfig bumps it. TX flow-cache entries revalidate
	// against it (alongside the KV version), so a generation swap
	// invalidates every cached resolution even when the change did not
	// touch the KV store (steering flips, topology membership).
	gen uint64
}

// Generation returns the current configuration generation.
func (n *Network) Generation() uint64 { return n.gen }

// BumpGeneration advances the configuration generation. Call from
// control context only (a coordinator event on a cluster, with every
// logical process parked): hosts read the generation on their transmit
// paths.
func (n *Network) BumpGeneration() uint64 {
	n.gen++
	return n.gen
}

// NewNetwork returns an empty network on simulation e.
func NewNetwork(e sim.Sim) *Network {
	return &Network{E: e, KV: NewKVStore()}
}

// AddHost creates a host from cfg.
func (n *Network) AddHost(cfg HostConfig) *Host {
	h := newHost(n, cfg, uint64(len(n.hosts)+1))
	n.hosts = append(n.hosts, h)
	return h
}

// Hosts returns all hosts.
func (n *Network) Hosts() []*Host { return n.hosts }

// Connect joins two hosts with a full-duplex link of the given rate and
// one-way delay (two unidirectional links delivering into each peer's
// NIC). Each unidirectional link lives on its sending host's shard
// engine; when the hosts sit on different shards the link becomes a
// cross-shard boundary — frames travel through a cluster PostSource
// whose lookahead is the link's minimum latency.
func (n *Network) Connect(a, b *Host, rateBitsPerSec float64, delay sim.Time) {
	ab := devices.NewLink(a.E, rateBitsPerSec, delay)
	ba := devices.NewLink(b.E, rateBitsPerSec, delay)
	if a.E == b.E {
		ab.Deliver = b.NIC.Arrive
		ba.Deliver = a.NIC.Arrive
	} else {
		// Each direction declares its own link's minimum latency; the
		// cluster's windows are as wide as the smallest of them, and
		// Post holds each frame to its own link's bound.
		cl := n.E.(*sim.Cluster)
		ab.Remote = newRemoteEgress(cl.Source(a.E, b.E, ab.Lookahead()), b)
		ba.Remote = newRemoteEgress(cl.Source(b.E, a.E, ba.Lookahead()), a)
	}
	a.links[b.IP] = ab
	b.links[a.IP] = ba
}

// remoteEgress adapts a cluster PostSource to devices.RemoteEgress: the
// far end of a cross-shard link. Delivery runs on the receiving shard at
// the frame's wire-arrival time and first re-points the frame's audit
// hooks at the receiving host's tap, so its receive-side stages stamp
// with that LP's clock. The closure is built once so the per-frame send
// path does not allocate.
type remoteEgress struct {
	out     *sim.PostSource
	deliver func(any)
}

func newRemoteEgress(out *sim.PostSource, dst *Host) *remoteEgress {
	return &remoteEgress{out: out, deliver: func(v any) {
		s := v.(*skb.SKB)
		s.AuditHandoff(dst.Audit)
		dst.NIC.Arrive(s)
	}}
}

// Send implements devices.RemoteEgress.
func (r *remoteEgress) Send(s *skb.SKB, arrival sim.Time) {
	r.out.Post(arrival, r.deliver, s)
}

// LinkTo returns the outgoing link from h toward the host owning dstIP.
func (h *Host) LinkTo(dstIP proto.IPv4Addr) *devices.Link {
	return h.links[dstIP]
}

// EachLink yields every outgoing link of h with its peer host IP.
// Iteration order is unspecified (map order), so callers must only
// aggregate order-insensitive facts: counter sums, emptiness checks.
func (h *Host) EachLink(yield func(peer proto.IPv4Addr, l *devices.Link)) {
	for ip, l := range h.links {
		yield(ip, l)
	}
}

// hostByIP finds a host by its public IP.
func (n *Network) hostByIP(ip proto.IPv4Addr) *Host {
	for _, h := range n.hosts {
		if h.IP == ip {
			return h
		}
	}
	return nil
}
