package devices

import (
	"testing"

	"falcon/internal/sim"
	"falcon/internal/skb"
)

func TestLinkSerializationTime(t *testing.T) {
	e := sim.New(1)
	l := NewLink(e, 10*Gbps, 0)
	// (1500+24)*8 bits at 10 Gb/s = 1219.2 ns.
	got := l.SerializationTime(1500)
	if got < 1200 || got > 1240 {
		t.Fatalf("serialization = %v", got)
	}
	l100 := NewLink(e, 100*Gbps, 0)
	if l100.SerializationTime(1500) >= got {
		t.Fatal("faster link not faster")
	}
}

func TestLinkDeliversInOrderWithDelay(t *testing.T) {
	e := sim.New(1)
	l := NewLink(e, 10*Gbps, 500)
	var got []uint64
	var times []sim.Time
	l.Deliver = func(s *skb.SKB) {
		got = append(got, s.Seq)
		times = append(times, e.Now())
	}
	for i := uint64(0); i < 3; i++ {
		s := skb.New(nil, 1500)
		s.Seq = i
		if !l.Send(s) {
			t.Fatal("send failed")
		}
	}
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("order: %v", got)
	}
	// Frames serialize back to back: deliveries spaced by one
	// serialization time.
	ser := l.SerializationTime(1500)
	if times[1]-times[0] != ser || times[2]-times[1] != ser {
		t.Fatalf("spacing: %v (ser=%v)", times, ser)
	}
	// First delivery = serialization + propagation.
	if times[0] != ser+500 {
		t.Fatalf("first delivery at %v, want %v", times[0], ser+500)
	}
}

// TestLinkLookaheadNeverOverestimated drives frames through every fault
// regime a link supports — jitter bursts switching on and off mid-wire,
// loss, queue pressure — and checks the PDES safety contract directly:
// no frame may arrive earlier than send-time + Lookahead(). Jitter only
// ever adds delay and reverting it must not let later frames undercut
// the bound (the wire-reorder bug the shard-invariance tests caught was
// exactly such an undercut relative to in-flight jittered frames).
func TestLinkLookaheadNeverOverestimated(t *testing.T) {
	e := sim.New(7)
	l := NewLink(e, 10*Gbps, 500)
	la := l.Lookahead()
	if want := l.SerializationTime(0) + 500; la != want {
		t.Fatalf("Lookahead = %v, want %v", la, want)
	}
	sent := make(map[uint64]sim.Time)
	var lastArrival sim.Time
	l.Deliver = func(s *skb.SKB) {
		now := e.Now()
		if now < sent[s.Seq]+la {
			t.Fatalf("frame %d arrived at %v < send %v + lookahead %v",
				s.Seq, now, sent[s.Seq], la)
		}
		if now < lastArrival {
			t.Fatalf("wire reordered: arrival %v after %v", now, lastArrival)
		}
		lastArrival = now
		s.Free()
	}
	rng := e.Rand().Fork()
	seq := uint64(0)
	var tick func()
	tick = func() {
		if seq >= 400 {
			return
		}
		// Flip fault regimes while frames are in flight.
		switch seq {
		case 50:
			l.Jitter = 3000
		case 120:
			l.Jitter = 0 // revert with jittered frames still on the wire
		case 200:
			l.Jitter = 900
			l.LossRate = 0.2
		case 300:
			l.Jitter = 0
			l.LossRate = 0
		}
		s := skb.New(nil, 64+rng.Intn(1400))
		s.Seq = seq
		sent[seq] = e.Now()
		seq++
		l.Send(s)
		e.After(sim.Time(1+rng.Intn(2000)), tick)
	}
	tick()
	e.Run()
	if lastArrival == 0 {
		t.Fatal("no frames delivered")
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	e := sim.New(1)
	l := NewLink(e, 1*Gbps, 0)
	l.TxQueueLen = 5
	l.Deliver = func(s *skb.SKB) {}
	sent := 0
	for i := 0; i < 20; i++ {
		if l.Send(skb.New(nil, 1500)) {
			sent++
		}
	}
	if sent != 5 {
		t.Fatalf("sent = %d, want 5", sent)
	}
	if l.Dropped.Value() != 15 {
		t.Fatalf("dropped = %d", l.Dropped.Value())
	}
	e.Run()
	// After drain the queue frees up.
	if !l.Send(skb.New(nil, 64)) {
		t.Fatal("send after drain failed")
	}
}

func TestLinkStampsWireTime(t *testing.T) {
	e := sim.New(1)
	l := NewLink(e, 10*Gbps, 0)
	l.Deliver = func(s *skb.SKB) {}
	e.After(1000, func() {
		s := skb.New(nil, 64)
		l.Send(s)
		if s.WireTime != 1000 {
			t.Errorf("wire time = %v", s.WireTime)
		}
	})
	e.Run()
}

func TestLinkBusy(t *testing.T) {
	e := sim.New(1)
	l := NewLink(e, 1*Gbps, 0)
	l.Deliver = func(s *skb.SKB) {}
	if l.Busy() {
		t.Fatal("idle link busy")
	}
	l.Send(skb.New(nil, 9000))
	if !l.Busy() {
		t.Fatal("transmitting link not busy")
	}
}

func TestBridgeLearnAndLookup(t *testing.T) {
	b := NewBridge("br0", 3)
	p0 := b.AddPort("veth0")
	p1 := b.AddPort("veth1")
	if b.NumPorts() != 2 {
		t.Fatalf("ports = %d", b.NumPorts())
	}
	m0 := macFor(10)
	b.Learn(m0, p0)
	if b.Lookup(m0) != p0 {
		t.Fatal("lookup after learn failed")
	}
	if b.FDBSize() != 1 {
		t.Fatalf("fdb size = %d", b.FDBSize())
	}
	unknown := macFor(99)
	if b.Lookup(unknown) != -1 {
		t.Fatal("unknown MAC did not flood")
	}
	if b.Flooded.Value() != 1 {
		t.Fatal("flood counter not incremented")
	}
	// Re-learning moves the MAC.
	b.Learn(m0, p1)
	if b.Lookup(m0) != p1 {
		t.Fatal("relearn did not update")
	}
}

func TestVethPair(t *testing.T) {
	b, c := NewVethPair("veth-br", "eth0", 4, 5, macFor(7), 1)
	if b.Peer() != c || c.Peer() != b {
		t.Fatal("pair not peered")
	}
	if b.Ifindex == c.Ifindex {
		t.Fatal("pair ends share ifindex")
	}
	if b.MAC != c.MAC || b.ContainerID != 1 {
		t.Fatal("pair metadata wrong")
	}
}
