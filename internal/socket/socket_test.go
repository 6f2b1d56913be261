package socket

import (
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/sim"
	"falcon/internal/skb"
)

func newSock(cores, appCore int) (*sim.Engine, *cpu.Machine, *Socket) {
	e := sim.New(1)
	m := cpu.NewMachine(e, costmodel.Kernel419(), cores)
	return e, m, New(m, appCore)
}

func pkt(flow, seq uint64, n int) *skb.SKB {
	s := skb.New(nil, n)
	s.FlowID = flow
	s.Seq = seq
	return s
}

func TestDeliverAndConsume(t *testing.T) {
	e, m, sk := newSock(2, 1)
	s := pkt(1, 1, 100)
	s.WireTime = 0
	if !sk.Deliver(m.Core(0), s) {
		t.Fatal("deliver failed")
	}
	e.Run()
	if sk.Delivered.Value() != 1 {
		t.Fatalf("delivered = %d", sk.Delivered.Value())
	}
	if sk.Bytes.Value() != 100 {
		t.Fatalf("bytes = %d", sk.Bytes.Value())
	}
	if sk.Latency.Count() != 1 || sk.Latency.Max() <= 0 {
		t.Fatal("latency not recorded")
	}
	// s is owned (and recycled) by the socket once consumed; the recorded
	// latency above is the observable proof the timestamp was set.
}

func TestConsumeRunsOnAppCore(t *testing.T) {
	e, m, sk := newSock(2, 1)
	sk.Deliver(m.Core(0), pkt(1, 1, 64))
	e.Run()
	if m.Acct.TotalBusy(1) == 0 {
		t.Fatal("app core did no work")
	}
}

func TestGROSegsCountedIndividually(t *testing.T) {
	e, m, sk := newSock(1, 0)
	s := pkt(1, 5, 3000)
	s.Segs = 3
	sk.Deliver(m.Core(0), s)
	e.Run()
	if sk.Delivered.Value() != 3 {
		t.Fatalf("delivered = %d, want 3 (GRO segments)", sk.Delivered.Value())
	}
	if sk.Latency.Count() != 3 {
		t.Fatalf("latency samples = %d, want 3", sk.Latency.Count())
	}
}

func TestSocketDropWhenFull(t *testing.T) {
	e, m, sk := newSock(1, 0)
	// Stuff more packets than the buffer holds before the app can run.
	for i := 0; i < DefaultRcvBuf+100; i++ {
		sk.Deliver(m.Core(0), pkt(1, uint64(i), 16))
	}
	if sk.SocketDrops.Value() == 0 {
		t.Fatal("no socket drops despite overflow")
	}
	e.Run()
	if sk.Delivered.Value() == 0 {
		t.Fatal("nothing consumed")
	}
}

func TestOrderViolationDetected(t *testing.T) {
	e, m, sk := newSock(1, 0)
	sk.Deliver(m.Core(0), pkt(7, 2, 16))
	sk.Deliver(m.Core(0), pkt(7, 1, 16)) // out of order
	sk.Deliver(m.Core(0), pkt(7, 3, 16))
	e.Run()
	if sk.OrderViols != 1 {
		t.Fatalf("order violations = %d, want 1", sk.OrderViols)
	}
}

func TestInOrderNoViolations(t *testing.T) {
	e, m, sk := newSock(1, 0)
	for i := uint64(1); i <= 50; i++ {
		sk.Deliver(m.Core(0), pkt(3, i, 16))
	}
	e.Run()
	if sk.OrderViols != 0 {
		t.Fatalf("order violations = %d", sk.OrderViols)
	}
}

func TestMigratedPacketCostsMore(t *testing.T) {
	run := func(migrations bool) sim.Time {
		e, m, sk := newSock(4, 0)
		s := pkt(1, 1, 64)
		if migrations {
			s.LastCore = 1
			s.Migrations = 2
		} else {
			s.LastCore = 0
		}
		sk.Deliver(m.Core(0), s)
		e.Run()
		return e.Now()
	}
	cold := run(true)
	warm := run(false)
	if cold <= warm {
		t.Fatalf("migrated packet not slower: cold=%v warm=%v", cold, warm)
	}
}

func TestOnDeliverCallback(t *testing.T) {
	e, m, sk := newSock(1, 0)
	var got []uint64
	sk.OnDeliver = func(s *skb.SKB) { got = append(got, s.Seq) }
	sk.Deliver(m.Core(0), pkt(1, 11, 16))
	sk.Deliver(m.Core(0), pkt(1, 12, 16))
	e.Run()
	if len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Fatalf("callback order: %v", got)
	}
}

func TestAppWorkExtendsProcessing(t *testing.T) {
	runWith := func(extra sim.Time) sim.Time {
		e, m, sk := newSock(1, 0)
		sk.AppWork = extra
		sk.Deliver(m.Core(0), pkt(1, 1, 16))
		e.Run()
		return e.Now()
	}
	if runWith(10*sim.Microsecond)-runWith(0) != 10*sim.Microsecond {
		t.Fatal("AppWork not applied")
	}
}
