package devices

import (
	"testing"

	"falcon/internal/sim"
	"falcon/internal/skb"
)

func TestLinkLossRate(t *testing.T) {
	e := sim.New(3)
	l := NewLink(e, 100*Gbps, 0)
	l.LossRate = 0.2
	delivered := 0
	l.Deliver = func(s *skb.SKB) { delivered++ }
	const n = 5000
	var send func(i int)
	send = func(i int) {
		if i == n {
			return
		}
		l.Send(skb.New(nil, 64))
		e.After(100, func() { send(i + 1) })
	}
	send(0)
	e.Run()
	if l.Lost.Value() == 0 {
		t.Fatal("no injected loss")
	}
	got := float64(delivered) / n
	if got < 0.75 || got > 0.85 {
		t.Fatalf("delivery ratio %.3f, want ~0.8", got)
	}
	if uint64(delivered)+l.Lost.Value() != n {
		t.Fatal("lost + delivered != sent")
	}
}

func TestLinkJitterPreservesOrder(t *testing.T) {
	e := sim.New(5)
	l := NewLink(e, 100*Gbps, sim.Microsecond)
	l.Jitter = 50 * sim.Microsecond
	var got []uint64
	l.Deliver = func(s *skb.SKB) { got = append(got, s.Seq) }
	for i := uint64(0); i < 200; i++ {
		s := skb.New(nil, 64)
		s.Seq = i
		l.Send(s)
	}
	e.Run()
	if len(got) != 200 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("jitter reordered the wire at %d", i)
		}
	}
}

func TestLinkJitterDelaysDelivery(t *testing.T) {
	withJitter := func(j sim.Time) sim.Time {
		e := sim.New(9)
		l := NewLink(e, 100*Gbps, 0)
		l.Jitter = j
		var last sim.Time
		l.Deliver = func(s *skb.SKB) { last = e.Now() }
		for i := 0; i < 50; i++ {
			l.Send(skb.New(nil, 64))
		}
		e.Run()
		return last
	}
	if withJitter(100*sim.Microsecond) <= withJitter(0) {
		t.Fatal("jitter did not delay delivery")
	}
}

func TestLinkZeroImpairmentsUnchanged(t *testing.T) {
	e := sim.New(1)
	l := NewLink(e, 100*Gbps, 0)
	delivered := 0
	l.Deliver = func(s *skb.SKB) { delivered++ }
	for i := 0; i < 100; i++ {
		l.Send(skb.New(nil, 64))
	}
	e.Run()
	if delivered != 100 || l.Lost.Value() != 0 {
		t.Fatalf("clean link lost frames: %d/%d", delivered, l.Lost.Value())
	}
}
