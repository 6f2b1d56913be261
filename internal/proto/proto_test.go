package proto

import "testing"

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0xab, 0x00, 0x01, 0x02, 0x03}
	if m.String() != "02:ab:00:01:02:03" {
		t.Fatalf("got %s", m)
	}
}

func TestMACFromUint64Unique(t *testing.T) {
	a, b := MACFromUint64(1), MACFromUint64(2)
	if a == b {
		t.Fatal("distinct ids produced equal MACs")
	}
	if a[0]&0x01 != 0 {
		t.Fatal("generated MAC is multicast")
	}
}

func TestIPv4AddrString(t *testing.T) {
	ip := IP4(10, 32, 0, 5)
	if ip.String() != "10.32.0.5" {
		t.Fatalf("got %s", ip)
	}
}

func TestChecksumRFCExample(t *testing.T) {
	// Known vector: an IPv4 header whose checksum field is filled must
	// verify to zero.
	var b [IPv4Len]byte
	PutIPv4(b[:], IPv4Hdr{TotalLen: 60, ID: 7, TTL: 64, Protocol: ProtoUDP,
		Src: IP4(192, 168, 0, 1), Dst: IP4(192, 168, 0, 2)})
	if Checksum(b[:]) != 0 {
		t.Fatal("checksum of checksummed header != 0")
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xFF}) != ^uint16(0xFF00) {
		t.Fatal("odd-length checksum wrong")
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	h := EthernetHdr{Dst: MACFromUint64(1), Src: MACFromUint64(2), EtherType: EtherTypeIPv4}
	var b [EthLen]byte
	PutEthernet(b[:], h)
	got, err := ParseEthernet(b[:])
	if err != nil || got != h {
		t.Fatalf("round trip: %+v err=%v", got, err)
	}
	if _, err := ParseEthernet(b[:10]); err == nil {
		t.Fatal("truncated parse succeeded")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4Hdr{TotalLen: 120, ID: 99, TTL: 64, Protocol: ProtoTCP,
		Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2)}
	b := make([]byte, 120)
	PutIPv4(b, h)
	got, err := ParseIPv4(b, 0)
	if err != nil || got != h {
		t.Fatalf("round trip: %+v err=%v", got, err)
	}
}

func TestIPv4CorruptionDetected(t *testing.T) {
	b := make([]byte, 60)
	PutIPv4(b, IPv4Hdr{TotalLen: 60, TTL: 64, Protocol: ProtoUDP,
		Src: IP4(1, 2, 3, 4), Dst: IP4(5, 6, 7, 8)})
	b[15] ^= 0x40 // flip a bit in the source address
	if _, err := ParseIPv4(b, 0); err != ErrBadChecksum {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestIPv4Truncated(t *testing.T) {
	b := make([]byte, 25)
	PutIPv4(b, IPv4Hdr{TotalLen: 60, TTL: 64, Protocol: ProtoUDP,
		Src: IP4(1, 2, 3, 4), Dst: IP4(5, 6, 7, 8)})
	if _, err := ParseIPv4(b, 0); err == nil {
		t.Fatal("TotalLen beyond buffer accepted")
	}
	// The unstored payload counts as part of the packet.
	if _, err := ParseIPv4(b, 34); err == nil {
		t.Fatal("TotalLen beyond buffer and payload accepted")
	}
	if _, err := ParseIPv4(b, 35); err != nil {
		t.Fatalf("TotalLen covered by the payload rejected: %v", err)
	}
	// A total length shorter than the header itself is malformed.
	PutIPv4(b, IPv4Hdr{TotalLen: 10, TTL: 64, Protocol: ProtoUDP})
	if _, err := ParseIPv4(b, 100); err == nil {
		t.Fatal("TotalLen below the header length accepted")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	h := UDPHdr{SrcPort: 1234, DstPort: 4789, Length: 20}
	b := make([]byte, 20)
	PutUDP(b, h)
	got, err := ParseUDP(b, 0)
	if err != nil || got != h {
		t.Fatalf("round trip: %+v err=%v", got, err)
	}
	// Headers only: the Length field counts the unstored payload.
	if _, err := ParseUDP(b[:UDPLen], 11); err == nil {
		t.Fatal("Length beyond header and payload accepted")
	}
	if got, err := ParseUDP(b[:UDPLen], 12); err != nil || got != h {
		t.Fatalf("headers-only round trip: %+v err=%v", got, err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := TCPHdr{SrcPort: 80, DstPort: 5000, Seq: 1 << 30, Ack: 42,
		Flags: TCPAck | TCPPsh, Window: 65535}
	var b [TCPLen]byte
	PutTCP(b[:], h)
	got, err := ParseTCP(b[:])
	if err != nil || got != h {
		t.Fatalf("round trip: %+v err=%v", got, err)
	}
}

func TestBuildParseUDPFrame(t *testing.T) {
	b := BuildUDPFrame(MACFromUint64(1), MACFromUint64(2),
		IP4(10, 0, 0, 1), IP4(10, 0, 0, 2), 5555, 6666, 9, 13)
	if len(b) != EthLen+IPv4Len+UDPLen {
		t.Fatalf("built %d bytes, want the headers only", len(b))
	}
	f, err := ParseFrame(b, 13)
	if err != nil {
		t.Fatal(err)
	}
	if f.IP.Protocol != ProtoUDP || f.SrcPort() != 5555 || f.DstPort() != 6666 {
		t.Fatalf("ports: %d→%d", f.SrcPort(), f.DstPort())
	}
	if f.IP.ID != 9 || f.IP.TotalLen != IPv4Len+UDPLen+13 || f.UDP.Length != UDPLen+13 {
		t.Fatalf("lengths: ip %+v udp %+v", f.IP, f.UDP)
	}
	if len(f.Payload) != 0 || f.PayLen != 13 || f.PayloadLen() != 13 {
		t.Fatalf("payload: %d stored + %d", len(f.Payload), f.PayLen)
	}
	if _, err := ParseFrame(b, 12); err == nil {
		t.Fatal("frame shorter than its headers say accepted")
	}
}

func TestBuildParseTCPFrame(t *testing.T) {
	hdr := TCPHdr{SrcPort: 33000, DstPort: 80, Seq: 77, Flags: TCPAck, Window: 1000}
	b := BuildTCPFrame(MACFromUint64(3), MACFromUint64(4),
		IP4(172, 17, 0, 2), IP4(172, 17, 0, 3), hdr, 3, 1000)
	if len(b) != EthLen+IPv4Len+TCPLen {
		t.Fatalf("built %d bytes, want the headers only", len(b))
	}
	f, err := ParseFrame(b, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if f.TCP != hdr {
		t.Fatalf("tcp hdr: %+v", f.TCP)
	}
	if f.IP.TotalLen != IPv4Len+TCPLen+1000 || f.PayloadLen() != 1000 || len(f.Payload) != 0 {
		t.Fatalf("lengths: total %d payload %d", f.IP.TotalLen, f.PayloadLen())
	}
}

func TestVXLANHeaderRoundTrip(t *testing.T) {
	var b [VXLANLen]byte
	PutVXLAN(b[:], VXLANHdr{VNI: 0xABCDEF})
	got, err := ParseVXLAN(b[:])
	if err != nil || got.VNI != 0xABCDEF {
		t.Fatalf("vni = %#x err=%v", got.VNI, err)
	}
	b[0] = 0
	if _, err := ParseVXLAN(b[:]); err == nil {
		t.Fatal("missing I flag accepted")
	}
}

func TestParseFrameErrors(t *testing.T) {
	if _, err := ParseFrame(nil, 0); err == nil {
		t.Fatal("nil frame parsed")
	}
	// Unsupported ethertype.
	b := make([]byte, 60)
	PutEthernet(b, EthernetHdr{EtherType: 0x86DD}) // IPv6
	if _, err := ParseFrame(b, 0); err == nil {
		t.Fatal("IPv6 ethertype accepted")
	}
	// Unsupported L4.
	PutEthernet(b, EthernetHdr{EtherType: EtherTypeIPv4})
	PutIPv4(b[EthLen:], IPv4Hdr{TotalLen: 40, TTL: 64, Protocol: 1, // ICMP
		Src: IP4(1, 1, 1, 1), Dst: IP4(2, 2, 2, 2)})
	if _, err := ParseFrame(b, 0); err == nil {
		t.Fatal("ICMP accepted")
	}
	if _, err := ParseFrame(b, -1); err == nil {
		t.Fatal("negative payload length accepted")
	}
}

func TestIPv4FragmentFlagsRoundTrip(t *testing.T) {
	b := make([]byte, 120)
	h := IPv4Hdr{TotalLen: 120, ID: 5, TTL: 64, Protocol: ProtoUDP,
		Src: IP4(1, 2, 3, 4), Dst: IP4(5, 6, 7, 8),
		MoreFrags: true, FragOff: 1480}
	PutIPv4(b, h)
	got, err := ParseIPv4(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MoreFrags || got.FragOff != 1480 || !got.IsFragment() {
		t.Fatalf("fragment state lost: %+v", got)
	}
	// Last fragment: MF clear, offset set.
	h.MoreFrags = false
	PutIPv4(b, h)
	got, _ = ParseIPv4(b, 0)
	if got.MoreFrags || got.FragOff != 1480 || !got.IsFragment() {
		t.Fatalf("last-fragment state lost: %+v", got)
	}
	// Non-fragment carries DF and is not a fragment.
	h.FragOff = 0
	PutIPv4(b, h)
	got, _ = ParseIPv4(b, 0)
	if got.IsFragment() {
		t.Fatal("plain header reports fragment")
	}
}

func TestParseFrameFirstFragmentUDP(t *testing.T) {
	// A first fragment exposes the UDP ports (for hashing) but its
	// Length field describes the full datagram.
	frag := BuildUDPFrame(MACFromUint64(1), MACFromUint64(2),
		IP4(10, 0, 0, 1), IP4(10, 0, 0, 2), 7000, 5001, 3, 4000)
	// Cut to 1480 bytes of IP payload and mark MF.
	PutIPv4(frag[EthLen:], IPv4Hdr{TotalLen: uint16(IPv4Len + 1480), ID: 3, TTL: 64,
		Protocol: ProtoUDP, Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2), MoreFrags: true})
	f, err := ParseFrame(frag, 1480-UDPLen)
	if err != nil {
		t.Fatalf("first fragment unparsable: %v", err)
	}
	if f.SrcPort() != 7000 || f.DstPort() != 5001 {
		t.Fatalf("ports lost: %d->%d", f.SrcPort(), f.DstPort())
	}
	if f.UDP.Length != UDPLen+4000 || f.PayloadLen() != 1480-UDPLen {
		t.Fatalf("udp length %d, fragment payload %d", f.UDP.Length, f.PayloadLen())
	}
}

func TestParseFrameContinuationFragment(t *testing.T) {
	frag := make([]byte, EthLen+IPv4Len)
	PutEthernet(frag, EthernetHdr{Dst: MACFromUint64(1), Src: MACFromUint64(2), EtherType: EtherTypeIPv4})
	PutIPv4(frag[EthLen:], IPv4Hdr{TotalLen: uint16(IPv4Len + 1000), ID: 3, TTL: 64,
		Protocol: ProtoUDP, Src: IP4(10, 0, 0, 1), Dst: IP4(10, 0, 0, 2),
		MoreFrags: true, FragOff: 1480})
	f, err := ParseFrame(frag, 1000)
	if err != nil {
		t.Fatalf("continuation fragment unparsable: %v", err)
	}
	if f.PayloadLen() != 1000 {
		t.Fatalf("raw payload = %d", f.PayloadLen())
	}
	if f.SrcPort() != 0 {
		t.Fatal("continuation fragment claims ports")
	}
}
