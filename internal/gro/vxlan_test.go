package gro

import (
	"testing"

	"falcon/internal/proto"
	"falcon/internal/skb"
)

// vxlanSeg builds a VXLAN-encapsulated TCP segment of the inner flow.
func vxlanSeg(srcPort uint16, seq uint32, payLen int, entropy uint16) *skb.SKB {
	inner := proto.BuildTCPFrame(proto.MACFromUint64(10), proto.MACFromUint64(11),
		proto.IP4(10, 32, 0, 1), proto.IP4(10, 32, 0, 2),
		proto.TCPHdr{SrcPort: srcPort, DstPort: 80, Seq: seq, Flags: proto.TCPAck, Window: 65535},
		0, payLen)
	return encap(inner, payLen, entropy, seq16(seq))
}

// encap wraps inner headers, followed by payLen payload bytes, in VXLAN
// the way vxlan_xmit does: skb_push into the headroom, then the outer
// headers.
func encap(inner []byte, payLen int, entropy, ipID uint16) *skb.SKB {
	s := skb.NewTx(len(inner), payLen, proto.OverlayOverhead)
	copy(s.Data, inner)
	s.Push(proto.OverlayOverhead)
	proto.PutEncapHeaders(s.Data, proto.MACFromUint64(20), proto.MACFromUint64(21),
		proto.IP4(192, 168, 1, 1), proto.IP4(192, 168, 1, 2), entropy, 42, ipID, len(inner)+payLen)
	return s
}

func seq16(v uint32) uint16 { return uint16(v%65000) + 1 }

func TestVXLANTCPBytesEligibility(t *testing.T) {
	if TCPBytes(vxlanSeg(5000, 0, 4, 49152)) == 0 {
		t.Fatal("VXLAN-encapsulated TCP not GRO-eligible")
	}
	// Encapsulated UDP is not eligible.
	innerUDP := proto.BuildUDPFrame(proto.MACFromUint64(10), proto.MACFromUint64(11),
		proto.IP4(10, 32, 0, 1), proto.IP4(10, 32, 0, 2), 7000, 5001, 1, 1)
	if TCPBytes(encap(innerUDP, 1, 49152, 9)) != 0 {
		t.Fatal("VXLAN-encapsulated UDP marked GRO-eligible")
	}
	// Plain UDP is not eligible.
	if TCPBytes(skb.New(innerUDP, 1)) != 0 {
		t.Fatal("plain UDP marked GRO-eligible")
	}
}

func TestVXLANSegmentsMerge(t *testing.T) {
	e := New()
	pay := 1000
	for i := 0; i < 4; i++ {
		out := e.Push(vxlanSeg(5000, uint32(i*1000), pay, 49152))
		if out != nil {
			t.Fatalf("segment %d not absorbed", i)
		}
	}
	merged := e.Flush()
	if len(merged) != 1 || merged[0].Segs != 4 {
		t.Fatalf("merge failed: %d packets", len(merged))
	}
	// The merged frame must still decapsulate into a valid inner frame
	// carrying all four payloads, starting at the first segment.
	m := merged[0]
	if f, err := m.Frame(); err != nil || m.Len() != proto.EthLen+int(f.IP.TotalLen) ||
		int(f.UDP.Length) != m.Len()-proto.EthLen-proto.IPv4Len {
		t.Fatalf("merged outer headers disagree with length %d: %v", m.Len(), err)
	}
	if !m.DecapVXLAN() {
		t.Fatal("merged frame does not decapsulate")
	}
	fi, err := m.Frame()
	if err != nil {
		t.Fatalf("merged inner invalid: %v", err)
	}
	if fi.PayloadLen() != 4000 || fi.TCP.Seq != 0 {
		t.Fatalf("merged inner run = seq %d len %d, want seq 0 len 4000", fi.TCP.Seq, fi.PayloadLen())
	}
	if m.Len() != proto.EthLen+int(fi.IP.TotalLen) {
		t.Fatalf("inner IPv4 total length %d disagrees with frame length %d", fi.IP.TotalLen, m.Len())
	}
}

func TestVXLANDistinctInnerFlowsDoNotMerge(t *testing.T) {
	e := New()
	pay := 500
	e.Push(vxlanSeg(5000, 0, pay, 49152))
	e.Push(vxlanSeg(6000, 0, pay, 49153)) // different inner flow
	out := e.Flush()
	if len(out) != 2 {
		t.Fatalf("cross-flow merge: %d packets", len(out))
	}
}

func TestVXLANAndPlainDoNotMerge(t *testing.T) {
	// Same inner 5-tuple, but one is encapsulated and one is plain: the
	// engine must not fold them into the same super-packet.
	e := New()
	pay := 500
	e.Push(vxlanSeg(5000, 0, pay, 49152))
	plain := proto.BuildTCPFrame(proto.MACFromUint64(10), proto.MACFromUint64(11),
		proto.IP4(10, 32, 0, 1), proto.IP4(10, 32, 0, 2),
		proto.TCPHdr{SrcPort: 5000, DstPort: 80, Seq: 500, Flags: proto.TCPAck, Window: 65535},
		0, pay)
	released := e.Push(skb.New(plain, pay))
	// Different encapsulation forces a release rather than a merge.
	if released == nil {
		flushed := e.Flush()
		total := 0
		for _, s := range flushed {
			total += s.Segs
		}
		if len(flushed) < 1 || total != 2 {
			t.Fatalf("plain+vxlan merged: %d packets, %d segs", len(flushed), total)
		}
		if flushed[0].Segs != 1 {
			t.Fatal("encapsulation mismatch merged")
		}
	}
}

func TestFragmentNotEligible(t *testing.T) {
	// An IP fragment (even of a TCP datagram) must bypass GRO.
	big := proto.BuildTCPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2),
		proto.TCPHdr{SrcPort: 5000, DstPort: 80, Seq: 0, Flags: proto.TCPAck, Window: 65535},
		0, 100)
	// Rewrite as a fragment (set MF).
	ip := proto.IPv4Hdr{TotalLen: uint16(len(big) + 100 - proto.EthLen), ID: 9, TTL: 64,
		Protocol: proto.ProtoTCP, Src: proto.IP4(10, 0, 0, 1), Dst: proto.IP4(10, 0, 0, 2),
		MoreFrags: true}
	proto.PutIPv4(big[proto.EthLen:], ip)
	if TCPBytes(skb.New(big, 100)) != 0 {
		t.Fatal("IP fragment marked GRO-eligible")
	}
	e := New()
	s := skb.New(big, 100)
	if out := e.Push(s); out != s {
		t.Fatal("fragment absorbed by GRO")
	}
}
