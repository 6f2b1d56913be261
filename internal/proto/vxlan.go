package proto

import (
	"encoding/binary"
	"errors"
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

// PutEncapHeaders writes the OverlayOverhead bytes of outer
// Ethernet+IPv4+UDP+VXLAN headers into b, in front of an inner frame of
// innerLen bytes — what vxlan_xmit writes into the skb's headroom after
// skb_push. srcPort carries the inner flow's entropy so RSS/RPS on the
// receiving host spread distinct inner flows across NIC queues, matching
// kernel behaviour (udp_flow_src_port).
func PutEncapHeaders(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, srcPort uint16, vni uint32, ipID uint16, innerLen int) {
	putEthIPv4(b, srcMAC, dstMAC, srcIP, dstIP, ProtoUDP, ipID, UDPLen+VXLANLen+innerLen)
	PutUDP(b[EthLen+IPv4Len:], UDPHdr{
		SrcPort: srcPort,
		DstPort: VXLANPort,
		Length:  uint16(UDPLen + VXLANLen + innerLen),
	})
	PutVXLAN(b[EthLen+IPv4Len+UDPLen:], VXLANHdr{VNI: vni})
}
