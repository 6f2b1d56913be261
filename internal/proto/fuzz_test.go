package proto

import "testing"

// FuzzParseFrame checks the frame parser two ways. Arbitrary header
// bytes with an arbitrary unstored payload length must never panic, and
// a parse that succeeds must describe a frame no longer than the one it
// was given. A frame built by BuildUDPFrame or BuildTCPFrame, optionally
// wrapped by PutEncapHeaders, must parse back to the same headers and
// lengths.
func FuzzParseFrame(f *testing.F) {
	f.Add(BuildUDPFrame(MACFromUint64(1), MACFromUint64(2), IP4(10, 0, 0, 1), IP4(10, 0, 0, 2),
		7000, 5001, 1, 256), 256, uint16(7000), uint16(5001), uint32(0), uint8(0), uint16(1), uint32(42), false, false)
	f.Add(BuildTCPFrame(MACFromUint64(1), MACFromUint64(2), IP4(10, 0, 0, 1), IP4(10, 0, 0, 2),
		TCPHdr{SrcPort: 40000, DstPort: 5201, Seq: 1 << 20, Ack: 7, Flags: TCPAck, Window: 65535}, 2, 4096),
		4096, uint16(40000), uint16(5201), uint32(1<<20), uint8(TCPAck), uint16(2), uint32(42), true, false)
	outer := make([]byte, OverlayOverhead)
	PutEncapHeaders(outer, MACFromUint64(3), MACFromUint64(4), IP4(192, 168, 1, 1), IP4(192, 168, 1, 2),
		49152, 42, 3, EthLen+IPv4Len+TCPLen+1400)
	encapped := append(outer, BuildTCPFrame(MACFromUint64(1), MACFromUint64(2), IP4(10, 0, 0, 1),
		IP4(10, 0, 0, 2), TCPHdr{SrcPort: 5000, DstPort: 80, Flags: TCPAck}, 4, 1400)...)
	f.Add(encapped, 1400, uint16(5000), uint16(80), uint32(0), uint8(TCPAck), uint16(3), uint32(42), true, true)
	f.Add([]byte{}, -1, uint16(0), uint16(0), uint32(0), uint8(0), uint16(0), uint32(0), false, true)

	f.Fuzz(func(t *testing.T, b []byte, payLen int, sport, dport uint16, seq uint32, flags uint8,
		id uint16, vni uint32, tcp, encap bool) {
		if fr, err := ParseFrame(b, payLen); err == nil {
			if fr.PayLen < 0 || len(fr.Payload) > len(b) ||
				EthLen+int(fr.IP.TotalLen) > len(b)+payLen || fr.PayloadLen() > int(fr.IP.TotalLen) {
				t.Fatalf("parse of %d bytes + %d describes a larger frame: %+v", len(b), payLen, fr)
			}
		}

		// Round trip. The payload length is bounded so every length
		// field, the outer one included, fits in 16 bits.
		n := payLen % 60000
		if n < 0 {
			n = -n
		}
		vni &= 0xFFFFFF
		src, dst := IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
		hdr := TCPHdr{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ^seq, Flags: flags, Window: id}
		var inner []byte
		if tcp {
			inner = BuildTCPFrame(MACFromUint64(1), MACFromUint64(2), src, dst, hdr, id, n)
		} else {
			inner = BuildUDPFrame(MACFromUint64(1), MACFromUint64(2), src, dst, sport, dport, id, n)
		}
		frame := inner
		if encap {
			frame = make([]byte, OverlayOverhead, OverlayOverhead+len(inner))
			PutEncapHeaders(frame, MACFromUint64(3), MACFromUint64(4), IP4(192, 168, 1, 1),
				IP4(192, 168, 1, 2), sport, vni, id+1, len(inner)+n)
			frame = append(frame, inner...)
		}
		fr, err := ParseFrame(frame, n)
		if err != nil {
			t.Fatalf("built frame does not parse: %v", err)
		}
		if EthLen+int(fr.IP.TotalLen) != len(frame)+n {
			t.Fatalf("IPv4 total length %d, frame %d+%d", fr.IP.TotalLen, len(frame), n)
		}
		if encap {
			if fr.IP.ID != id+1 || fr.UDP.SrcPort != sport || fr.UDP.DstPort != VXLANPort ||
				int(fr.UDP.Length) != UDPLen+VXLANLen+len(inner)+n {
				t.Fatalf("outer headers: %+v %+v", fr.IP, fr.UDP)
			}
			vh, err := ParseVXLAN(fr.Payload)
			if err != nil || vh.VNI != vni {
				t.Fatalf("vxlan header: %+v %v", vh, err)
			}
			if fr, err = ParseFrame(fr.Payload[VXLANLen:], fr.PayLen); err != nil {
				t.Fatalf("inner frame does not parse: %v", err)
			}
		}
		if fr.IP.ID != id || fr.IP.Src != src || fr.IP.Dst != dst || fr.IP.IsFragment() ||
			int(fr.IP.TotalLen) != len(inner)-EthLen+n {
			t.Fatalf("inner IPv4 header: %+v", fr.IP)
		}
		if len(fr.Payload) != 0 || fr.PayLen != n {
			t.Fatalf("payload: %d stored + %d, want 0 + %d", len(fr.Payload), fr.PayLen, n)
		}
		if tcp {
			if fr.IP.Protocol != ProtoTCP || fr.TCP != hdr {
				t.Fatalf("tcp header: %+v, want %+v", fr.TCP, hdr)
			}
		} else if fr.IP.Protocol != ProtoUDP || fr.UDP != (UDPHdr{sport, dport, uint16(UDPLen + n)}) {
			t.Fatalf("udp header: %+v", fr.UDP)
		}
	})
}
