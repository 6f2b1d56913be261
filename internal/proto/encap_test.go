package proto_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"falcon/internal/proto"
	"falcon/internal/skb"
)

// encap encapsulates inner headers, followed by payLen payload bytes,
// the way the transmit path does (vxlan_xmit): skb_push into the
// headroom, then PutEncapHeaders.
func encap(inner []byte, payLen int, sport uint16, vni uint32, ipID uint16) *skb.SKB {
	s := skb.NewTx(len(inner), payLen, proto.OverlayOverhead)
	copy(s.Data, inner)
	if !s.Push(proto.OverlayOverhead) {
		panic("no headroom")
	}
	proto.PutEncapHeaders(s.Data, proto.MACFromUint64(20), proto.MACFromUint64(21),
		proto.IP4(192, 168, 1, 1), proto.IP4(192, 168, 1, 2), sport, vni, ipID, len(inner)+payLen)
	return s
}

// vniOf returns the VNI of an encapsulated SKB's VXLAN header.
func vniOf(t *testing.T, s *skb.SKB) uint32 {
	t.Helper()
	f, err := s.Frame()
	if err != nil {
		t.Fatalf("outer frame: %v", err)
	}
	vh, err := proto.ParseVXLAN(f.Payload)
	if err != nil {
		t.Fatalf("vxlan header: %v", err)
	}
	return vh.VNI
}

func TestEncapDecapRoundTrip(t *testing.T) {
	inner := proto.BuildUDPFrame(proto.MACFromUint64(10), proto.MACFromUint64(11),
		proto.IP4(10, 32, 0, 2), proto.IP4(10, 32, 0, 3), 7000, 8000, 1, 17)
	s := encap(inner, 17, 49152, 42, 2)

	if s.Len() != len(inner)+17+proto.OverlayOverhead {
		t.Fatalf("outer len = %d, want %d", s.Len(), len(inner)+17+proto.OverlayOverhead)
	}
	if !s.IsVXLAN() {
		t.Fatal("IsVXLAN false for encapsulated frame")
	}
	if skb.New(inner, 17).IsVXLAN() {
		t.Fatal("IsVXLAN true for plain frame")
	}
	if vni := vniOf(t, s); vni != 42 {
		t.Fatalf("vni = %d", vni)
	}
	if !s.DecapVXLAN() {
		t.Fatal("decap failed")
	}
	if !bytes.Equal(s.Data, inner) || s.PayLen() != 17 {
		t.Fatal("inner frame corrupted by encap/decap")
	}
	// The inner frame must still parse cleanly.
	f, err := s.Frame()
	if err != nil || f.PayloadLen() != 17 || f.DstPort() != 8000 {
		t.Fatalf("inner parse: %v", err)
	}
}

func TestDecapsulateRejectsNonVXLAN(t *testing.T) {
	plain := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(1, 1, 1, 1), proto.IP4(2, 2, 2, 2), 100, 200, 0, 1)
	if skb.New(plain, 1).DecapVXLAN() {
		t.Fatal("decap of non-VXLAN frame succeeded")
	}
}

func TestEncapDecapProperty(t *testing.T) {
	// Any payload length survives encap→decap with the inner headers
	// byte-for-byte.
	if err := quick.Check(func(payLen uint16, vni uint32, sport uint16) bool {
		n := int(payLen) % 9001
		vni &= 0xFFFFFF
		inner := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
			proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2), 1000, 2000, 5, n)
		s := encap(inner, n, sport|0x8000, vni, 6)
		return vniOf(t, s) == vni && s.DecapVXLAN() &&
			bytes.Equal(s.Data, inner) && s.PayLen() == n
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
