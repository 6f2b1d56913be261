// Package proto implements byte-accurate network headers: Ethernet, IPv4
// (with RFC 1071 checksums), UDP, TCP, and the VXLAN encapsulation used by
// Docker overlay networks. The simulated devices build and parse real
// headers, so the "prolonged data path" the paper analyses — encapsulation
// on transmit, decapsulation on receive — is actually executed on every
// packet rather than merely charged as an abstract cost.
//
// A frame is stored as its header bytes followed by a payload length:
// payload content never affects a result, so it is not stored. Every
// parser takes the header bytes and the length of the payload that
// follows them, and its length checks count that payload as part of the
// frame.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Header lengths in bytes.
const (
	EthLen   = 14
	IPv4Len  = 20
	UDPLen   = 8
	TCPLen   = 20
	VXLANLen = 8

	// OverlayOverhead is the extra bytes VXLAN encapsulation adds to an
	// inner Ethernet frame: outer Ethernet + outer IPv4 + outer UDP +
	// VXLAN header.
	OverlayOverhead = EthLen + IPv4Len + UDPLen + VXLANLen
)

// EtherType values.
const (
	EtherTypeIPv4 = 0x0800
)

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// VXLANPort is the IANA-assigned UDP destination port for VXLAN.
const VXLANPort = 4789

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the MAC in colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MACFromUint64 derives a locally-administered unicast MAC from an id.
func MACFromUint64(v uint64) MAC {
	var m MAC
	m[0] = 0x02 // locally administered, unicast
	m[1] = byte(v >> 32)
	m[2] = byte(v >> 24)
	m[3] = byte(v >> 16)
	m[4] = byte(v >> 8)
	m[5] = byte(v)
	return m
}

// IPv4Addr is an IPv4 address in host byte order.
type IPv4Addr uint32

// IP4 builds an address from dotted quad components.
func IP4(a, b, c, d byte) IPv4Addr {
	return IPv4Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad form.
func (ip IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Checksum computes the RFC 1071 ones-complement checksum of data.
func Checksum(data []byte) uint16 {
	var sum uint32
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// EthernetHdr is a parsed Ethernet header.
type EthernetHdr struct {
	Dst, Src  MAC
	EtherType uint16
}

// PutEthernet writes an Ethernet header into b (len >= EthLen).
func PutEthernet(b []byte, h EthernetHdr) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.EtherType)
}

// ParseEthernet reads an Ethernet header from b.
func ParseEthernet(b []byte) (EthernetHdr, error) {
	if len(b) < EthLen {
		return EthernetHdr{}, errTruncated("ethernet", len(b), EthLen)
	}
	var h EthernetHdr
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return h, nil
}

// IPv4Hdr is a parsed IPv4 header (no options). MoreFrags and FragOff
// (in bytes, a multiple of 8) carry fragmentation state; a non-fragment
// has both zero and is emitted with DF set.
type IPv4Hdr struct {
	TotalLen  uint16
	ID        uint16
	TTL       uint8
	Protocol  uint8
	Src, Dst  IPv4Addr
	MoreFrags bool
	FragOff   uint16
}

// IsFragment reports whether the header describes an IP fragment.
func (h IPv4Hdr) IsFragment() bool { return h.MoreFrags || h.FragOff != 0 }

// PutIPv4 writes an IPv4 header with a valid checksum into b
// (len >= IPv4Len). TotalLen must include the header itself.
func PutIPv4(b []byte, h IPv4Hdr) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = 0    // DSCP/ECN
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	flags := uint16(0x4000) // DF on unfragmented datagrams
	if h.IsFragment() {
		flags = h.FragOff / 8
		if h.MoreFrags {
			flags |= 0x2000 // MF
		}
	}
	binary.BigEndian.PutUint16(b[6:8], flags)
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint32(b[12:16], uint32(h.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(h.Dst))
	csum := Checksum(b[:IPv4Len])
	binary.BigEndian.PutUint16(b[10:12], csum)
}

// PatchIPv4ID rewrites the identification field of the IPv4 header that
// starts at b[EthLen:] and fixes the header checksum — the only per-packet
// mutation a cached encapsulation template needs.
func PatchIPv4ID(b []byte, id uint16) {
	ip := b[EthLen : EthLen+IPv4Len]
	binary.BigEndian.PutUint16(ip[4:6], id)
	ip[10], ip[11] = 0, 0
	csum := Checksum(ip)
	binary.BigEndian.PutUint16(ip[10:12], csum)
}

// ParseIPv4 reads and validates an IPv4 header from b, the stored bytes
// of a packet followed by payLen bytes that are not stored.
func ParseIPv4(b []byte, payLen int) (IPv4Hdr, error) {
	if len(b) < IPv4Len {
		return IPv4Hdr{}, errTruncated("ipv4", len(b), IPv4Len)
	}
	if b[0]>>4 != 4 {
		return IPv4Hdr{}, fmt.Errorf("proto: not IPv4 (version %d)", b[0]>>4)
	}
	if ihl := int(b[0]&0xf) * 4; ihl != IPv4Len {
		return IPv4Hdr{}, fmt.Errorf("proto: unsupported IPv4 options (ihl=%d)", ihl)
	}
	if Checksum(b[:IPv4Len]) != 0 {
		return IPv4Hdr{}, ErrBadChecksum
	}
	flags := binary.BigEndian.Uint16(b[6:8])
	h := IPv4Hdr{
		TotalLen:  binary.BigEndian.Uint16(b[2:4]),
		ID:        binary.BigEndian.Uint16(b[4:6]),
		TTL:       b[8],
		Protocol:  b[9],
		Src:       IPv4Addr(binary.BigEndian.Uint32(b[12:16])),
		Dst:       IPv4Addr(binary.BigEndian.Uint32(b[16:20])),
		MoreFrags: flags&0x2000 != 0,
		FragOff:   (flags & 0x1FFF) * 8,
	}
	if h.TotalLen < IPv4Len {
		return IPv4Hdr{}, fmt.Errorf("proto: IPv4 total length %d below header length", h.TotalLen)
	}
	if int(h.TotalLen) > len(b)+payLen {
		return IPv4Hdr{}, errTruncated("ipv4 payload", len(b)+payLen, int(h.TotalLen))
	}
	return h, nil
}

// UDPHdr is a parsed UDP header.
type UDPHdr struct {
	SrcPort, DstPort uint16
	Length           uint16 // header + payload
}

// PutUDP writes a UDP header into b (len >= UDPLen). The checksum is left
// zero (legal for UDP over IPv4, and what VXLAN tunnels commonly do).
func PutUDP(b []byte, h UDPHdr) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], 0)
}

// ParseUDP reads a UDP header from b, the stored bytes of a datagram
// followed by payLen bytes that are not stored.
func ParseUDP(b []byte, payLen int) (UDPHdr, error) {
	if len(b) < UDPLen {
		return UDPHdr{}, errTruncated("udp", len(b), UDPLen)
	}
	h := UDPHdr{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Length:  binary.BigEndian.Uint16(b[4:6]),
	}
	if int(h.Length) > len(b)+payLen || h.Length < UDPLen {
		return UDPHdr{}, errTruncated("udp payload", len(b)+payLen, int(h.Length))
	}
	return h, nil
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// TCPHdr is a parsed TCP header (no options).
type TCPHdr struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// PutTCP writes a TCP header into b (len >= TCPLen).
func PutTCP(b []byte, h TCPHdr) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = 5 << 4 // data offset: 5 words
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], 0) // checksum (offloaded)
	binary.BigEndian.PutUint16(b[18:20], 0) // urgent
}

// ParseTCP reads a TCP header from b.
func ParseTCP(b []byte) (TCPHdr, error) {
	if len(b) < TCPLen {
		return TCPHdr{}, errTruncated("tcp", len(b), TCPLen)
	}
	if off := int(b[12]>>4) * 4; off != TCPLen {
		return TCPHdr{}, fmt.Errorf("proto: unsupported TCP options (offset=%d)", off)
	}
	return TCPHdr{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   b[13],
		Window:  binary.BigEndian.Uint16(b[14:16]),
	}, nil
}

// ErrBadChecksum reports a corrupted IPv4 header.
var ErrBadChecksum = errors.New("proto: bad checksum")

func errTruncated(layer string, got, want int) error {
	return fmt.Errorf("proto: truncated %s: %d bytes, need %d", layer, got, want)
}
