package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// VXLANHdr is the 8-byte VXLAN header (RFC 7348).
type VXLANHdr struct {
	VNI uint32 // 24-bit VXLAN network identifier
}

// vxlanFlagVNI marks the VNI field as valid (the only defined flag).
const vxlanFlagVNI = 0x08

// PutVXLAN writes a VXLAN header into b (len >= VXLANLen).
func PutVXLAN(b []byte, h VXLANHdr) {
	b[0] = vxlanFlagVNI
	b[1], b[2], b[3] = 0, 0, 0
	binary.BigEndian.PutUint32(b[4:8], h.VNI<<8)
}

// ParseVXLAN reads a VXLAN header from b.
func ParseVXLAN(b []byte) (VXLANHdr, error) {
	if len(b) < VXLANLen {
		return VXLANHdr{}, errTruncated("vxlan", len(b), VXLANLen)
	}
	if b[0]&vxlanFlagVNI == 0 {
		return VXLANHdr{}, errors.New("proto: VXLAN I flag not set")
	}
	return VXLANHdr{VNI: binary.BigEndian.Uint32(b[4:8]) >> 8}, nil
}

// Encapsulate wraps an inner Ethernet frame in outer
// Ethernet+IPv4+UDP+VXLAN headers — what vxlan_xmit does on transmit.
// srcPort carries the inner flow's entropy so RSS/RPS on the receiving
// host spread distinct inner flows across NIC queues, matching kernel
// behaviour (udp_flow_src_port).
func Encapsulate(inner []byte, srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, srcPort uint16, vni uint32, ipID uint16) []byte {
	b := make([]byte, OverlayOverhead+len(inner))
	PutEncapHeaders(b, srcMAC, dstMAC, srcIP, dstIP, srcPort, vni, ipID, len(inner))
	copy(b[OverlayOverhead:], inner)
	return b
}

// PutEncapHeaders writes the OverlayOverhead bytes of outer
// Ethernet+IPv4+UDP+VXLAN headers into b, in front of an inner frame of
// innerLen bytes — the in-place variant of Encapsulate used when the skb
// has headroom (the kernel's skb_push path in vxlan_xmit).
func PutEncapHeaders(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, srcPort uint16, vni uint32, ipID uint16, innerLen int) {
	putEthIPv4(b, srcMAC, dstMAC, srcIP, dstIP, ProtoUDP, ipID, UDPLen+VXLANLen+innerLen)
	PutUDP(b[EthLen+IPv4Len:], UDPHdr{
		SrcPort: srcPort,
		DstPort: VXLANPort,
		Length:  uint16(UDPLen + VXLANLen + innerLen),
	})
	PutVXLAN(b[EthLen+IPv4Len+UDPLen:], VXLANHdr{VNI: vni})
}

// Decapsulate validates the outer headers of a VXLAN frame and returns
// the inner Ethernet frame and the VNI — what vxlan_rcv does on receive.
// The returned slice aliases the input buffer (zero copy, like the
// kernel's skb header pull).
func Decapsulate(outer []byte) (inner []byte, vni uint32, err error) {
	f, err := ParseFrame(outer)
	if err != nil {
		return nil, 0, fmt.Errorf("proto: decap outer: %w", err)
	}
	if f.IP.Protocol != ProtoUDP || f.UDP.DstPort != VXLANPort {
		return nil, 0, errors.New("proto: not a VXLAN frame")
	}
	vh, err := ParseVXLAN(f.Payload)
	if err != nil {
		return nil, 0, err
	}
	return f.Payload[VXLANLen:], vh.VNI, nil
}

// IsVXLAN reports whether the frame looks like VXLAN-in-UDP without
// fully validating it — the fast-path check udp_rcv performs before
// handing the packet to vxlan_rcv.
func IsVXLAN(b []byte) bool {
	f, err := ParseFrame(b)
	return err == nil && !f.IP.IsFragment() &&
		f.IP.Protocol == ProtoUDP && f.UDP.DstPort == VXLANPort
}
