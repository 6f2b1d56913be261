// Package gro implements Generic Receive Offload: coalescing consecutive
// TCP segments of one flow, received within a NAPI poll batch, into
// super-packets of up to 64 KB. GRO slashes per-packet upper-stack cost
// for bulk TCP but is itself CPU-hungry — at 4 KB segments it saturates
// the pNIC stage together with skb allocation (paper Fig. 9a), which is
// why Falcon's softirq *splitting* moves napi_gro_receive to its own
// core ("GRO-splitting", Section 4.2).
//
// The engine operates on real header bytes and payload lengths: a merge
// adds the absorbed segment's payload length to the super-packet and
// rewrites its IPv4 header (length + checksum), so it still parses as a
// valid frame downstream.
package gro

import "falcon/internal/skb"

// MaxMergedBytes caps a merged frame's total size; IPv4's 16-bit length
// bounds it just under 64 KB.
const MaxMergedBytes = 65000

type flowKeyID struct {
	key skb.FlowKey
}

type held struct {
	s        *skb.SKB
	nextSeq  uint32 // expected sequence of the next in-order segment
	innerOff int    // inner IPv4 offset for VXLAN frames; -1 for plain TCP
}

// Engine holds per-flow merge state for one NAPI context. It is a pure
// data structure: the caller charges CPU costs.
type Engine struct {
	table map[flowKeyID]*held
	order []flowKeyID // flush order = first-arrival order

	// Merged counts segments absorbed into a super-packet; Held counts
	// packets currently buffered.
	Merged uint64
}

// New returns an empty GRO engine.
func New() *Engine {
	return &Engine{table: make(map[flowKeyID]*held)}
}

// HeldCount returns the number of flows with a packet buffered.
func (e *Engine) HeldCount() int { return len(e.order) }

// Push offers s to the engine. Packets that cannot participate in GRO
// (non-TCP, unparsable, SYN/FIN/RST) are returned immediately for
// delivery. TCP segments — plain or VXLAN-encapsulated (matched on the
// inner flow, as udp_tunnel GRO does) — are buffered or merged; nil is
// returned while the engine absorbs them. A previously held super-packet
// is returned when s starts a new non-contiguous run for the same flow
// or when the held packet reached the size cap.
func (e *Engine) Push(s *skb.SKB) *skb.SKB {
	gi, ok := dissect(s)
	if !ok {
		return s
	}
	id := flowKeyID{key: gi.key}
	h, found := e.table[id]
	if !found {
		e.table[id] = &held{s: s, nextSeq: gi.seq + uint32(gi.payLen), innerOff: gi.innerOff}
		e.order = append(e.order, id)
		return nil
	}
	// Contiguity, size and same-encapsulation checks.
	if gi.seq != h.nextSeq || gi.innerOff != h.innerOff ||
		h.s.Len()+gi.payLen > MaxMergedBytes {
		// Release the held super-packet; s becomes the new head.
		out := h.s
		e.table[id] = &held{s: s, nextSeq: gi.seq + uint32(gi.payLen), innerOff: gi.innerOff}
		return out
	}
	mergeAt(h.s, gi.payLen, h.innerOff)
	h.s.Segs += s.Segs
	h.nextSeq += uint32(gi.payLen)
	e.Merged++
	// The absorbed segment's payload now counts in the super-packet;
	// recycle it (the kernel frees merged skbs in gro_pull_from_frag0).
	s.Stage("gro-absorbed")
	s.Free()
	return nil
}

// Flush releases all held packets in first-arrival order; called at the
// end of a NAPI poll batch (napi_gro_flush).
func (e *Engine) Flush() []*skb.SKB {
	if len(e.order) == 0 {
		return nil
	}
	out := make([]*skb.SKB, 0, len(e.order))
	for _, id := range e.order {
		if h, ok := e.table[id]; ok {
			out = append(out, h.s)
			delete(e.table, id)
		}
	}
	e.order = e.order[:0]
	return out
}
