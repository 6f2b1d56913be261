package proto

import (
	"encoding/binary"
	"fmt"
)

// Frame is a fully parsed Ethernet frame through L4. It is the
// simulation's equivalent of the kernel's flow dissector output.
type Frame struct {
	Eth     EthernetHdr
	IP      IPv4Hdr
	UDP     UDPHdr // valid when IP.Protocol == ProtoUDP
	TCP     TCPHdr // valid when IP.Protocol == ProtoTCP
	Payload []byte // L4 payload (points into the original buffer)
}

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

// ParseFrame dissects an Ethernet frame down to L4.
func ParseFrame(b []byte) (Frame, error) {
	var f Frame
	var err error
	if f.Eth, err = ParseEthernet(b); err != nil {
		return f, err
	}
	if f.Eth.EtherType != EtherTypeIPv4 {
		return f, fmt.Errorf("proto: unsupported ethertype %#04x", f.Eth.EtherType)
	}
	ip := b[EthLen:]
	if f.IP, err = ParseIPv4(ip); err != nil {
		return f, err
	}
	l4 := ip[IPv4Len:int(f.IP.TotalLen)]
	if f.IP.FragOff != 0 {
		// Non-first fragment: no L4 header, raw payload only.
		f.Payload = l4
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
			f.Payload = l4[UDPLen:]
			return f, nil
		}
		if f.UDP, err = ParseUDP(l4); err != nil {
			return f, err
		}
		f.Payload = l4[UDPLen:f.UDP.Length]
	case ProtoTCP:
		if f.TCP, err = ParseTCP(l4); err != nil {
			return f, err
		}
		f.Payload = l4[TCPLen:]
	default:
		return f, fmt.Errorf("proto: unsupported IP protocol %d", f.IP.Protocol)
	}
	return f, nil
}

// BuildUDPFrame assembles a complete Ethernet+IPv4+UDP frame around
// payload. ipID feeds the IPv4 identification field.
func BuildUDPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, srcPort, dstPort uint16, ipID uint16, payload []byte) []byte {
	b := make([]byte, EthLen+IPv4Len+UDPLen+len(payload))
	putEthIPv4(b, srcMAC, dstMAC, srcIP, dstIP, ProtoUDP, ipID, UDPLen+len(payload))
	PutUDP(b[EthLen+IPv4Len:], UDPHdr{
		SrcPort: srcPort,
		DstPort: dstPort,
		Length:  uint16(UDPLen + len(payload)),
	})
	copy(b[EthLen+IPv4Len+UDPLen:], payload)
	return b
}

// BuildTCPFrame assembles a complete Ethernet+IPv4+TCP frame.
func BuildTCPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, hdr TCPHdr, ipID uint16, payload []byte) []byte {
	b := make([]byte, EthLen+IPv4Len+TCPLen+len(payload))
	putEthIPv4(b, srcMAC, dstMAC, srcIP, dstIP, ProtoTCP, ipID, TCPLen+len(payload))
	PutTCP(b[EthLen+IPv4Len:], hdr)
	copy(b[EthLen+IPv4Len+TCPLen:], payload)
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
