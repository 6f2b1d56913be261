package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame is a fully parsed Ethernet frame through L4. It is the
// simulation's equivalent of the kernel's flow dissector output.
type Frame struct {
	Eth EthernetHdr
	IP  IPv4Hdr
	UDP UDPHdr // valid when IP.Protocol == ProtoUDP
	TCP TCPHdr // valid when IP.Protocol == ProtoTCP
	// Payload is the stored part of the L4 payload (points into the
	// original buffer): the headers of an encapsulated frame, or nothing.
	// PayLen more payload bytes follow it unstored.
	Payload []byte
	PayLen  int
}

// PayloadLen returns the L4 payload's length, stored bytes included.
func (f *Frame) PayloadLen() int { return len(f.Payload) + f.PayLen }

// SrcPort returns the L4 source port regardless of protocol.
func (f *Frame) SrcPort() uint16 {
	if f.IP.Protocol == ProtoTCP {
		return f.TCP.SrcPort
	}
	return f.UDP.SrcPort
}

// DstPort returns the L4 destination port regardless of protocol.
func (f *Frame) DstPort() uint16 {
	if f.IP.Protocol == ProtoTCP {
		return f.TCP.DstPort
	}
	return f.UDP.DstPort
}

// span returns the first n bytes of a region whose stored bytes are b:
// the stored part and the length of the unstored rest.
func span(b []byte, n int) ([]byte, int) {
	if n <= len(b) {
		return b[:n], 0
	}
	return b, n - len(b)
}

// ParseFrame dissects an Ethernet frame down to L4. b holds the frame's
// stored bytes, which must include every header; payLen more payload
// bytes follow them unstored.
func ParseFrame(b []byte, payLen int) (Frame, error) {
	var f Frame
	var err error
	if payLen < 0 {
		return f, errors.New("proto: negative payload length")
	}
	if f.Eth, err = ParseEthernet(b); err != nil {
		return f, err
	}
	if f.Eth.EtherType != EtherTypeIPv4 {
		return f, fmt.Errorf("proto: unsupported ethertype %#04x", f.Eth.EtherType)
	}
	ip := b[EthLen:]
	if f.IP, err = ParseIPv4(ip, payLen); err != nil {
		return f, err
	}
	ip, payLen = span(ip, int(f.IP.TotalLen))
	l4 := ip[IPv4Len:]
	if f.IP.FragOff != 0 {
		// Non-first fragment: no L4 header, raw payload only.
		f.Payload, f.PayLen = l4, payLen
		return f, nil
	}
	switch f.IP.Protocol {
	case ProtoUDP:
		if f.IP.MoreFrags {
			// First fragment: the UDP header is present but its Length
			// covers the whole (unassembled) datagram.
			if len(l4) < UDPLen {
				return f, errTruncated("udp", len(l4), UDPLen)
			}
			f.UDP = UDPHdr{
				SrcPort: binary.BigEndian.Uint16(l4[0:2]),
				DstPort: binary.BigEndian.Uint16(l4[2:4]),
				Length:  binary.BigEndian.Uint16(l4[4:6]),
			}
			f.Payload, f.PayLen = l4[UDPLen:], payLen
			return f, nil
		}
		if f.UDP, err = ParseUDP(l4, payLen); err != nil {
			return f, err
		}
		l4, payLen = span(l4, int(f.UDP.Length))
		f.Payload, f.PayLen = l4[UDPLen:], payLen
	case ProtoTCP:
		if f.TCP, err = ParseTCP(l4); err != nil {
			return f, err
		}
		f.Payload, f.PayLen = l4[TCPLen:], payLen
	default:
		return f, fmt.Errorf("proto: unsupported IP protocol %d", f.IP.Protocol)
	}
	return f, nil
}

// BuildUDPFrame returns the Ethernet+IPv4+UDP headers of a frame
// carrying payLen payload bytes. ipID feeds the IPv4 identification
// field.
func BuildUDPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, srcPort, dstPort uint16, ipID uint16, payLen int) []byte {
	b := make([]byte, EthLen+IPv4Len+UDPLen)
	putEthIPv4(b, srcMAC, dstMAC, srcIP, dstIP, ProtoUDP, ipID, UDPLen+payLen)
	PutUDP(b[EthLen+IPv4Len:], UDPHdr{
		SrcPort: srcPort,
		DstPort: dstPort,
		Length:  uint16(UDPLen + payLen),
	})
	return b
}

// BuildTCPFrame returns the Ethernet+IPv4+TCP headers of a frame
// carrying payLen payload bytes.
func BuildTCPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, hdr TCPHdr, ipID uint16, payLen int) []byte {
	b := make([]byte, EthLen+IPv4Len+TCPLen)
	putEthIPv4(b, srcMAC, dstMAC, srcIP, dstIP, ProtoTCP, ipID, TCPLen+payLen)
	PutTCP(b[EthLen+IPv4Len:], hdr)
	return b
}

// putEthIPv4 writes the Ethernet and IPv4 headers of a frame carrying
// l4Len bytes of protocol ipProto.
func putEthIPv4(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, ipProto uint8, ipID uint16, l4Len int) {
	PutEthernet(b, EthernetHdr{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4})
	PutIPv4(b[EthLen:], IPv4Hdr{
		TotalLen: uint16(IPv4Len + l4Len), ID: ipID, TTL: 64,
		Protocol: ipProto, Src: srcIP, Dst: dstIP,
	})
}
