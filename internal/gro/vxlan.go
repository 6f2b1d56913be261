package gro

import (
	"encoding/binary"

	"falcon/internal/proto"
	"falcon/internal/skb"
)

// VXLAN-aware GRO: modern NICs/kernels (udp_tunnel GRO) coalesce
// encapsulated TCP segments at the physical NIC's NAPI context by
// matching on the *inner* flow. This is why the pNIC stage saturates
// for overlay TCP bulk traffic exactly as for host traffic (paper
// Fig. 9a) and why Falcon's GRO splitting helps overlay TCP (Fig. 13).

// dissect classifies a frame for GRO: a plain TCP frame, a VXLAN frame
// with an inner TCP segment, or neither.
type groInfo struct {
	key      skb.FlowKey
	seq      uint32
	payLen   int // the segment's TCP payload length
	innerOff int // offset of the inner IPv4 header (VXLAN); -1 for plain
}

func dissect(s *skb.SKB) (groInfo, bool) {
	f, err := s.Frame()
	if err != nil || f.IP.IsFragment() {
		return groInfo{}, false
	}
	switch {
	case f.IP.Protocol == proto.ProtoTCP:
		if f.TCP.Flags&(proto.TCPSyn|proto.TCPFin|proto.TCPRst) != 0 || f.PayloadLen() == 0 {
			return groInfo{}, false
		}
		return groInfo{
			key: skb.FlowKey{SrcIP: f.IP.Src, DstIP: f.IP.Dst,
				SrcPort: f.TCP.SrcPort, DstPort: f.TCP.DstPort, Proto: proto.ProtoTCP},
			seq: f.TCP.Seq, payLen: f.PayloadLen(), innerOff: -1,
		}, true
	case f.IP.Protocol == proto.ProtoUDP && f.UDP.DstPort == proto.VXLANPort:
		fi, ok := s.VXLANInner()
		if !ok || fi.IP.Protocol != proto.ProtoTCP {
			return groInfo{}, false
		}
		if fi.TCP.Flags&(proto.TCPSyn|proto.TCPFin|proto.TCPRst) != 0 || fi.PayloadLen() == 0 {
			return groInfo{}, false
		}
		return groInfo{
			key: skb.FlowKey{SrcIP: fi.IP.Src, DstIP: fi.IP.Dst,
				SrcPort: fi.TCP.SrcPort, DstPort: fi.TCP.DstPort, Proto: proto.ProtoTCP},
			seq: fi.TCP.Seq, payLen: fi.PayloadLen(),
			innerOff: proto.OverlayOverhead + proto.EthLen,
		}, true
	default:
		return groInfo{}, false
	}
}

// TCPBytes reports the GRO-chargeable bytes of a packet: its length when
// it is a plain or VXLAN-encapsulated TCP segment, else zero. The
// receive path uses this to decide napi_gro_receive's per-byte cost and
// whether Falcon's GRO split applies. It runs off the skb's cached
// dissect, so repeated stage checks cost nothing.
func TCPBytes(s *skb.SKB) int {
	if _, ok := dissect(s); ok {
		return s.Len()
	}
	return 0
}

// mergeAt grows the merged frame by a segment's payLen payload bytes
// and patches every length and checksum on the path to it: for plain
// TCP the single IPv4 header; for VXLAN both the outer IPv4/UDP and the
// inner IPv4.
func mergeAt(dst *skb.SKB, payLen, innerOff int) {
	dst.Grow(payLen)
	n := uint16(payLen)
	patchIPv4 := func(off int) {
		ip := dst.Data[off:]
		total := binary.BigEndian.Uint16(ip[2:4]) + n
		binary.BigEndian.PutUint16(ip[2:4], total)
		binary.BigEndian.PutUint16(ip[10:12], 0)
		binary.BigEndian.PutUint16(ip[10:12], proto.Checksum(ip[:proto.IPv4Len]))
	}
	patchIPv4(proto.EthLen)
	if innerOff >= 0 {
		// Outer UDP length, then the inner IPv4 header.
		udp := dst.Data[proto.EthLen+proto.IPv4Len:]
		binary.BigEndian.PutUint16(udp[4:6], binary.BigEndian.Uint16(udp[4:6])+n)
		patchIPv4(innerOff)
	}
}
