package gro

import (
	"testing"

	"falcon/internal/proto"
	"falcon/internal/skb"
)

func tcpSeg(srcPort uint16, seq uint32, payLen int) *skb.SKB {
	frame := proto.BuildTCPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2),
		proto.TCPHdr{SrcPort: srcPort, DstPort: 80, Seq: seq, Flags: proto.TCPAck, Window: 65535},
		0, payLen)
	return skb.New(frame, payLen)
}

func udpPkt() *skb.SKB {
	return skb.New(proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2), 100, 200, 0, 1), 1)
}

// segOf parses s and returns its TCP sequence number and payload
// length: the run a (super-)packet carries.
func segOf(t *testing.T, s *skb.SKB) (seq uint32, payLen int) {
	t.Helper()
	f, err := s.Frame()
	if err != nil {
		t.Fatalf("merged frame does not parse: %v", err)
	}
	if s.Len() != proto.EthLen+int(f.IP.TotalLen) {
		t.Fatalf("skb length %d disagrees with IPv4 total length %d", s.Len(), f.IP.TotalLen)
	}
	return f.TCP.Seq, f.PayloadLen()
}

func TestUDPPassesThrough(t *testing.T) {
	e := New()
	p := udpPkt()
	if got := e.Push(p); got != p {
		t.Fatal("UDP packet not passed through")
	}
	if e.HeldCount() != 0 {
		t.Fatal("UDP packet held")
	}
}

func TestUnparsablePassesThrough(t *testing.T) {
	e := New()
	p := skb.New([]byte{1, 2, 3}, 0)
	if got := e.Push(p); got != p {
		t.Fatal("garbage not passed through")
	}
}

func TestControlSegmentsPassThrough(t *testing.T) {
	e := New()
	syn := tcpSeg(5000, 0, 0)
	// Zero-payload control packet passes straight through.
	if got := e.Push(syn); got != syn {
		t.Fatal("SYN-ish zero payload segment held")
	}
}

func TestContiguousSegmentsMerge(t *testing.T) {
	e := New()
	a := tcpSeg(5000, 1000, 100)
	b := tcpSeg(5000, 1100, 100)
	c := tcpSeg(5000, 1200, 100)
	if e.Push(a) != nil || e.Push(b) != nil || e.Push(c) != nil {
		t.Fatal("contiguous segments not absorbed")
	}
	out := e.Flush()
	if len(out) != 1 {
		t.Fatalf("flush returned %d packets, want 1", len(out))
	}
	m := out[0]
	if m.Segs != 3 {
		t.Fatalf("segs = %d, want 3", m.Segs)
	}
	if seq, n := segOf(t, m); seq != 1000 || n != 300 {
		t.Fatalf("merged run = seq %d len %d, want seq 1000 len 300", seq, n)
	}
	if e.Merged != 2 {
		t.Fatalf("merged counter = %d, want 2", e.Merged)
	}
}

func TestNonContiguousReleasesHeld(t *testing.T) {
	e := New()
	a := tcpSeg(5000, 1000, 100)
	gap := tcpSeg(5000, 9000, 100)
	e.Push(a)
	out := e.Push(gap)
	if out == nil {
		t.Fatal("gap did not release held packet")
	}
	if seq, n := segOf(t, out); seq != 1000 || n != 100 {
		t.Fatal("released wrong packet")
	}
	// The gap segment is now held.
	fl := e.Flush()
	if len(fl) != 1 {
		t.Fatal("gap segment not held after release")
	}
	if seq, _ := segOf(t, fl[0]); seq != 9000 {
		t.Fatal("gap segment not held after release")
	}
}

func TestDistinctFlowsDoNotMerge(t *testing.T) {
	e := New()
	a := tcpSeg(5000, 0, 4)
	b := tcpSeg(6000, 0, 4)
	e.Push(a)
	e.Push(b)
	out := e.Flush()
	if len(out) != 2 {
		t.Fatalf("flush = %d packets, want 2", len(out))
	}
	if out[0].Segs != 1 || out[1].Segs != 1 {
		t.Fatal("cross-flow merge happened")
	}
}

func TestFlushOrderIsArrivalOrder(t *testing.T) {
	e := New()
	e.Push(tcpSeg(7000, 0, 1))
	e.Push(tcpSeg(5000, 0, 1))
	e.Push(tcpSeg(6000, 0, 1))
	out := e.Flush()
	f0, _ := out[0].Frame()
	f2, _ := out[2].Frame()
	if f0.TCP.SrcPort != 7000 || f2.TCP.SrcPort != 6000 {
		t.Fatal("flush order != arrival order")
	}
	if e.HeldCount() != 0 {
		t.Fatal("flush left state behind")
	}
}

func TestSizeCapReleases(t *testing.T) {
	e := New()
	seg := 16000
	seq := uint32(0)
	var released *skb.SKB
	for i := 0; i < 8 && released == nil; i++ {
		released = e.Push(tcpSeg(5000, seq, seg))
		seq += uint32(seg)
	}
	if released == nil {
		t.Fatal("size cap never triggered")
	}
	if released.Len() > MaxMergedBytes {
		t.Fatalf("released frame exceeds cap: %d", released.Len())
	}
	// Released super-packet must still parse with a valid checksum.
	if _, n := segOf(t, released); n != released.Segs*seg {
		t.Fatalf("capped super-packet carries %d payload bytes, want %d", n, released.Segs*seg)
	}
}

func TestMergedFrameChecksumValid(t *testing.T) {
	e := New()
	e.Push(tcpSeg(5000, 0, 500))
	e.Push(tcpSeg(5000, 500, 500))
	out := e.Flush()
	if len(out) != 1 {
		t.Fatal("merge failed")
	}
	f, err := out[0].Frame()
	if err != nil {
		t.Fatalf("checksum/parse error: %v", err)
	}
	if int(f.IP.TotalLen) != proto.IPv4Len+proto.TCPLen+1000 {
		t.Fatalf("total len = %d", f.IP.TotalLen)
	}
}
