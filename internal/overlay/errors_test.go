package overlay

import (
	"testing"

	"falcon/internal/cpu"
	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
)

// vxlanToServer encapsulates inner headers, followed by payLen payload
// bytes, from the client host to the server host the way vxlan_xmit
// does: skb_push into the headroom, then the outer headers.
func vxlanToServer(b *bed, inner []byte, payLen int, srcPort, ipID uint16) *skb.SKB {
	s := skb.NewTx(len(inner), payLen, proto.OverlayOverhead)
	copy(s.Data, inner)
	s.Push(proto.OverlayOverhead)
	proto.PutEncapHeaders(s.Data, b.client.MAC, b.server.MAC, clientIP, serverIP,
		srcPort, VNI, ipID, len(inner)+payLen)
	return s
}

func TestUnknownMACDropsAtBridge(t *testing.T) {
	b := newBed(t, "", 100*devices.Gbps)
	// Forge a VXLAN frame whose inner dst MAC no container owns.
	inner := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(0x999),
		cliCtrIP, srvCtrIP, 7000, 5001, 1, 1)
	b.client.LinkTo(serverIP).Send(vxlanToServer(b, inner, 1, 49200, 7))
	b.e.RunUntil(5 * sim.Millisecond)
	if b.server.Rx.PathDrops.Value() != 1 {
		t.Fatalf("path drops = %d, want 1 (unknown MAC)", b.server.Rx.PathDrops.Value())
	}
	if b.server.Bridge.Flooded.Value() != 1 {
		t.Fatal("bridge flood not counted")
	}
}

func TestCorruptedFrameDroppedAtNIC(t *testing.T) {
	b := newBed(t, "", 100*devices.Gbps)
	inner := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		cliCtrIP, srvCtrIP, 7000, 5001, 1, 1)
	s := vxlanToServer(b, inner, 1, 49200, 8)
	s.Data[proto.EthLen+13] ^= 0xFF // corrupt a header byte in flight
	b.client.LinkTo(serverIP).Send(s)
	b.e.RunUntil(5 * sim.Millisecond)
	if b.server.NIC.Drops.Value() != 1 {
		t.Fatalf("NIC drops = %d, want 1 (checksum)", b.server.NIC.Drops.Value())
	}
	if b.server.Rx.Decapped.Value() != 0 {
		t.Fatal("corrupt frame decapsulated")
	}
}

func TestSendTCPBuildsValidSegments(t *testing.T) {
	b := newBed(t, "", 100*devices.Gbps)
	var got []*skb.SKB
	b.server.Bind(SockKey{IP: srvCtrIP, Port: 443, Proto: proto.ProtoTCP},
		func(c *cpu.Core, s *skb.SKB, f *proto.Frame, done func()) {
			got = append(got, s)
			if f.TCP.Seq != 1000 || f.TCP.Flags&proto.TCPPsh == 0 {
				t.Errorf("tcp header mangled: %+v", f.TCP)
			}
			done()
		})
	_ = got
	b.client.SendTCP(SendParams{
		From: b.cliCtr, DstIP: srvCtrIP, Payload: 512, Core: 2,
	}, proto.TCPHdr{SrcPort: 40000, DstPort: 443, Seq: 1000,
		Flags: proto.TCPAck | proto.TCPPsh, Window: 65535})
	b.e.RunUntil(5 * sim.Millisecond)
	if len(got) != 1 {
		t.Fatalf("delivered %d segments", len(got))
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	b := newBed(t, "", 100*devices.Gbps)
	result := true
	b.client.SendUDP(SendParams{
		From: b.cliCtr, SrcPort: 1, DstIP: srvCtrIP, DstPort: 2,
		Payload: MaxOverlayPayload + 1, Core: 2,
		Done: func(ok bool) { result = ok },
	})
	b.e.RunUntil(sim.Millisecond)
	if result {
		t.Fatal("oversized overlay payload accepted")
	}
	// The host-network limit is higher: the same payload fits there.
	result = false
	b.client.SendUDP(SendParams{
		SrcPort: 1, DstIP: serverIP, DstPort: 2,
		Payload: MaxOverlayPayload + 1, Core: 2,
		Done: func(ok bool) { result = ok },
	})
	b.e.RunUntil(2 * sim.Millisecond)
	if !result {
		t.Fatal("host payload within limit rejected")
	}
}
