package skb

import (
	"testing"
	"testing/quick"

	"falcon/internal/proto"
)

func udpFrame(srcPort, dstPort uint16) []byte {
	return proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2), srcPort, dstPort, 0, 1)
}

func TestFlowKeyOf(t *testing.T) {
	k, err := FlowKeyOf(udpFrame(1111, 2222), 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.SrcPort != 1111 || k.DstPort != 2222 || k.Proto != proto.ProtoUDP {
		t.Fatalf("key = %+v", k)
	}
	if k.String() == "" {
		t.Fatal("empty key string")
	}
}

func TestFlowKeyHashStable(t *testing.T) {
	k := FlowKey{SrcIP: proto.IP4(10, 0, 0, 1), DstIP: proto.IP4(10, 0, 0, 2),
		SrcPort: 5, DstPort: 6, Proto: proto.ProtoUDP}
	if k.Hash() != k.Hash() {
		t.Fatal("hash not deterministic")
	}
}

func TestFlowHashDistinguishesFlows(t *testing.T) {
	// Across many synthetic flows, collisions must be rare.
	seen := map[uint32]int{}
	n := 0
	for p := uint16(1000); p < 1200; p++ {
		k := FlowKey{SrcIP: proto.IP4(10, 0, 0, 1), DstIP: proto.IP4(10, 0, 0, 2),
			SrcPort: p, DstPort: 80, Proto: proto.ProtoTCP}
		seen[k.Hash()]++
		n++
	}
	if len(seen) < n-2 {
		t.Fatalf("too many hash collisions: %d distinct of %d", len(seen), n)
	}
}

func TestSetFlowHashOnce(t *testing.T) {
	s := New(udpFrame(100, 200), 1)
	if err := s.SetFlowHash(); err != nil {
		t.Fatal(err)
	}
	h := s.Hash
	// Change the frame; hash must stay pinned until reset.
	s.SetData(udpFrame(300, 400), 1)
	if err := s.SetFlowHash(); err != nil {
		t.Fatal(err)
	}
	if s.Hash != h {
		t.Fatal("pinned hash recomputed")
	}
	s.ResetFlowHash()
	if err := s.SetFlowHash(); err != nil {
		t.Fatal(err)
	}
	if s.Hash == h {
		t.Fatal("hash not recomputed after reset")
	}
}

func TestSetFlowHashBadFrame(t *testing.T) {
	s := &SKB{Data: []byte{1, 2, 3}}
	if err := s.SetFlowHash(); err == nil {
		t.Fatal("bad frame hashed")
	}
}

func TestDeviceFlowHashSeparatesStages(t *testing.T) {
	flow := FlowKey{SrcIP: proto.IP4(10, 0, 0, 1), DstIP: proto.IP4(10, 0, 0, 2),
		SrcPort: 9, DstPort: 10, Proto: proto.ProtoUDP}.Hash()
	// The same flow at different devices must map to different hashes
	// (this is the paper's core enabling observation, Section 4.1).
	h1 := DeviceFlowHash(flow, 1)
	h2 := DeviceFlowHash(flow, 2)
	h3 := DeviceFlowHash(flow, 3)
	if h1 == h2 || h2 == h3 || h1 == h3 {
		t.Fatalf("device hashes collide: %x %x %x", h1, h2, h3)
	}
	// Same flow, same device → same hash (in-order guarantee).
	if DeviceFlowHash(flow, 2) != h2 {
		t.Fatal("device hash not deterministic")
	}
}

func TestHash32Distribution(t *testing.T) {
	// hash_32 over sequential inputs must spread across 8 buckets.
	var buckets [8]int
	for i := uint32(0); i < 8000; i++ {
		buckets[Hash32(i)%8]++
	}
	for i, c := range buckets {
		if c < 500 || c > 1500 {
			t.Fatalf("bucket %d badly skewed: %d", i, c)
		}
	}
}

func TestJhash3Avalanche(t *testing.T) {
	if err := quick.Check(func(a, b, c uint32) bool {
		h1 := jhash3(a, b, c)
		h2 := jhash3(a^1, b, c)
		return h1 != h2 // single-bit input flip must change the hash
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(0)
	a, b, c := &SKB{Seq: 1}, &SKB{Seq: 2}, &SKB{Seq: 3}
	q.Enqueue(a)
	q.Enqueue(b)
	q.Enqueue(c)
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Peek() != a {
		t.Fatal("peek != head")
	}
	for want := uint64(1); want <= 3; want++ {
		if got := q.Dequeue(); got == nil || got.Seq != want {
			t.Fatalf("dequeue got %v, want seq %d", got, want)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue from empty queue returned skb")
	}
}

func TestQueueLimitDrops(t *testing.T) {
	q := NewQueue(2)
	if !q.Enqueue(&SKB{}) || !q.Enqueue(&SKB{}) {
		t.Fatal("enqueue under limit failed")
	}
	if q.Enqueue(&SKB{}) {
		t.Fatal("enqueue over limit succeeded")
	}
	if q.Dropped() != 1 {
		t.Fatalf("dropped = %d", q.Dropped())
	}
	q.Dequeue()
	if !q.Enqueue(&SKB{}) {
		t.Fatal("enqueue after drain failed")
	}
}

func TestQueueInterleaved(t *testing.T) {
	// Property: a queue preserves FIFO order under any interleaving of
	// enqueues and dequeues.
	if err := quick.Check(func(ops []bool) bool {
		q := NewQueue(0)
		next := uint64(0)
		expect := uint64(0)
		for _, enq := range ops {
			if enq {
				q.Enqueue(&SKB{Seq: next})
				next++
			} else if s := q.Dequeue(); s != nil {
				if s.Seq != expect {
					return false
				}
				expect++
			}
		}
		for s := q.Dequeue(); s != nil; s = q.Dequeue() {
			if s.Seq != expect {
				return false
			}
			expect++
		}
		return expect == next
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
