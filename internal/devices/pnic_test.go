package devices

import (
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/netdev"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
	"falcon/internal/steering"
)

func macFor(v uint64) proto.MAC { return proto.MACFromUint64(v) }

func newNIC(t *testing.T, cores int, rssCores []int, groOn bool) (*sim.Engine, *netdev.Stack, *PNIC) {
	t.Helper()
	e := sim.New(1)
	m := cpu.NewMachine(e, costmodel.Kernel419(), cores)
	st := netdev.NewStack(m)
	nic := NewPNIC(st, "eth0", steering.RSS{QueueCores: rssCores}, groOn)
	return e, st, nic
}

func udpSKB(srcPort uint16, seq uint64) *skb.SKB {
	s := skb.New(proto.BuildUDPFrame(macFor(1), macFor(2),
		proto.IP4(192, 168, 0, 1), proto.IP4(192, 168, 0, 2), srcPort, 9000, uint16(seq), 2), 2)
	s.Seq = seq
	s.FlowID = uint64(srcPort)
	return s
}

func tcpSKB(srcPort uint16, seq uint32, payLen int) *skb.SKB {
	return skb.New(proto.BuildTCPFrame(macFor(1), macFor(2),
		proto.IP4(192, 168, 0, 1), proto.IP4(192, 168, 0, 2),
		proto.TCPHdr{SrcPort: srcPort, DstPort: 80, Seq: seq, Flags: proto.TCPAck, Window: 65535},
		0, payLen), payLen)
}

func TestPNICDeliversPackets(t *testing.T) {
	e, _, nic := newNIC(t, 2, []int{0}, false)
	var got []uint64
	nic.OnReceive = func(c *cpu.Core, s *skb.SKB, done func()) {
		got = append(got, s.Seq)
		done()
	}
	for i := uint64(0); i < 10; i++ {
		nic.Arrive(udpSKB(1234, i))
	}
	e.Run()
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestPNICHardIRQCoalescing(t *testing.T) {
	e, st, nic := newNIC(t, 1, []int{0}, false)
	nic.OnReceive = func(c *cpu.Core, s *skb.SKB, done func()) { done() }
	// A burst arriving while NAPI is active must raise only one hardirq.
	for i := uint64(0); i < 20; i++ {
		nic.Arrive(udpSKB(1, i))
	}
	e.Run()
	if n := st.M.IRQ.Core(0, stats.IRQHard); n != 1 {
		t.Fatalf("hardirqs = %d, want 1 (coalesced)", n)
	}
	// After the ring drains, a new arrival raises a fresh hardirq.
	nic.Arrive(udpSKB(1, 100))
	e.Run()
	if n := st.M.IRQ.Core(0, stats.IRQHard); n != 2 {
		t.Fatalf("hardirqs = %d, want 2", n)
	}
}

func TestPNICRSSSpreadsFlows(t *testing.T) {
	e, st, nic := newNIC(t, 4, []int{0, 1, 2, 3}, false)
	nic.OnReceive = func(c *cpu.Core, s *skb.SKB, done func()) { done() }
	for p := uint16(1); p <= 64; p++ {
		for i := uint64(0); i < 4; i++ {
			nic.Arrive(udpSKB(p, i))
		}
	}
	e.Run()
	busyCores := 0
	for c := 0; c < 4; c++ {
		if st.M.Acct.TotalBusy(c) > 0 {
			busyCores++
		}
	}
	if busyCores < 3 {
		t.Fatalf("RSS used %d cores, want >=3", busyCores)
	}
}

func TestPNICSingleFlowSingleQueue(t *testing.T) {
	e, st, nic := newNIC(t, 4, []int{0, 1, 2, 3}, false)
	nic.OnReceive = func(c *cpu.Core, s *skb.SKB, done func()) { done() }
	for i := uint64(0); i < 50; i++ {
		nic.Arrive(udpSKB(777, i)) // one flow
	}
	e.Run()
	busyCores := 0
	for c := 0; c < 4; c++ {
		if st.M.Acct.TotalBusy(c) > 0 {
			busyCores++
		}
	}
	if busyCores != 1 {
		t.Fatalf("single flow used %d cores, want 1 (RSS is per-flow)", busyCores)
	}
}

func TestPNICRingOverflowDrops(t *testing.T) {
	e, _, nic := newNIC(t, 1, []int{0}, false)
	nic.RingSize = 8
	nic.OnReceive = func(c *cpu.Core, s *skb.SKB, done func()) { done() }
	for i := uint64(0); i < 100; i++ {
		nic.Arrive(udpSKB(1, i))
	}
	if nic.Drops.Value() == 0 {
		t.Fatal("no drops with tiny ring")
	}
	e.Run()
}

func TestPNICDropsUnparsableFrame(t *testing.T) {
	e, _, nic := newNIC(t, 1, []int{0}, false)
	delivered := 0
	nic.OnReceive = func(c *cpu.Core, s *skb.SKB, done func()) { delivered++; done() }
	nic.Arrive(skb.New([]byte{1, 2, 3}, 0))
	e.Run()
	if nic.Drops.Value() != 1 || delivered != 0 {
		t.Fatal("garbage frame not dropped")
	}
}

func TestPNICGROMergesTCPBatch(t *testing.T) {
	e, _, nic := newNIC(t, 1, []int{0}, true)
	var out []*skb.SKB
	nic.OnReceive = func(c *cpu.Core, s *skb.SKB, done func()) {
		out = append(out, s)
		done()
	}
	payload := 1000
	for i := 0; i < 8; i++ {
		nic.Arrive(tcpSKB(5000, uint32(i*1000), payload))
	}
	e.Run()
	if len(out) != 1 {
		t.Fatalf("GRO produced %d packets, want 1 merged", len(out))
	}
	if out[0].Segs != 8 {
		t.Fatalf("segs = %d, want 8", out[0].Segs)
	}
	if _, err := out[0].Frame(); err != nil {
		t.Fatalf("merged frame invalid: %v", err)
	}
}

func TestPNICGROOffNoMerge(t *testing.T) {
	e, _, nic := newNIC(t, 1, []int{0}, false)
	count := 0
	nic.OnReceive = func(c *cpu.Core, s *skb.SKB, done func()) { count++; done() }
	for i := 0; i < 8; i++ {
		nic.Arrive(tcpSKB(5000, uint32(i*100), 100))
	}
	e.Run()
	if count != 8 {
		t.Fatalf("delivered %d, want 8 unmerged", count)
	}
}

func TestPNICGROFlushOnBudgetExhaustion(t *testing.T) {
	// When the NAPI budget runs out mid-burst, the poll loop must flush
	// its GRO engine before yielding (napi_gro_flush at the end of
	// net_rx_action's slice) — segments held across activations would
	// stall delivery behind the next activation and, for a window-limited
	// sender, deadlock the flow. A 10-segment contiguous burst at budget
	// 4 must therefore surface as three super-packets of 4+4+2 segments,
	// never one of 10.
	e, st, nic := newNIC(t, 1, []int{0}, true)
	nic.Budget = 4
	var out []*skb.SKB
	nic.OnReceive = func(c *cpu.Core, s *skb.SKB, done func()) {
		out = append(out, s)
		done()
	}
	payload := 1000
	for i := 0; i < 10; i++ {
		nic.Arrive(tcpSKB(6000, uint32(i*1000), payload))
	}
	e.Run()
	if len(out) != 3 {
		t.Fatalf("budget-bounded GRO produced %d packets, want 3 (4+4+2)", len(out))
	}
	total := 0
	for i, s := range out {
		total += s.Segs
		if s.Segs > nic.Budget {
			t.Fatalf("packet %d merged %d segs across a budget boundary", i, s.Segs)
		}
		if _, err := s.Frame(); err != nil {
			t.Fatalf("super-packet %d invalid: %v", i, err)
		}
	}
	if total != 10 {
		t.Fatalf("segs delivered = %d, want 10", total)
	}
	if out[0].Segs != 4 || out[2].Segs != 2 {
		t.Fatalf("segs pattern = [%d %d %d], want [4 4 2]", out[0].Segs, out[1].Segs, out[2].Segs)
	}
	// Each budget exhaustion re-raises NET_RX: three activations minimum.
	if got := st.M.IRQ.Core(0, stats.IRQNetRX); got < 3 {
		t.Fatalf("NET_RX = %d, want >=3", got)
	}
}

func TestPNICBudgetReraisesSoftirq(t *testing.T) {
	e, st, nic := newNIC(t, 1, []int{0}, false)
	nic.Budget = 4
	count := 0
	nic.OnReceive = func(c *cpu.Core, s *skb.SKB, done func()) { count++; done() }
	for i := uint64(0); i < 10; i++ {
		nic.Arrive(udpSKB(1, i))
	}
	e.Run()
	if count != 10 {
		t.Fatalf("delivered %d, want 10", count)
	}
	// 10 packets at budget 4 => at least 3 NET_RX activations.
	if got := st.M.IRQ.Core(0, stats.IRQNetRX); got < 3 {
		t.Fatalf("NET_RX = %d, want >=3", got)
	}
}
