package netdev

import (
	"fmt"
	"strings"
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

func newStack(cores int) (*sim.Engine, *Stack) {
	e := sim.New(1)
	m := cpu.NewMachine(e, costmodel.Kernel419(), cores)
	return e, NewStack(m)
}

func passthrough(processed *[]uint64) Handler {
	return func(c *cpu.Core, s *skb.SKB, done func()) {
		c.Exec(stats.CtxSoftIRQ, costmodel.FnBacklog, 0, func() {
			*processed = append(*processed, s.Seq)
			done()
		})
	}
}

func TestRegisterDevice(t *testing.T) {
	_, st := newStack(1)
	if idx := st.RegisterDevice("eth0"); idx != 1 {
		t.Fatalf("first ifindex = %d, want 1", idx)
	}
	if idx := st.RegisterDevice("vxlan0"); idx != 2 {
		t.Fatalf("second ifindex = %d, want 2", idx)
	}
	if st.DeviceName(2) != "vxlan0" {
		t.Fatal("device name lookup failed")
	}
	if st.DeviceName(99) != "if99" {
		t.Fatal("unknown ifindex fallback wrong")
	}
}

func TestNetifRxProcessesFIFO(t *testing.T) {
	e, st := newStack(1)
	var processed []uint64
	h := passthrough(&processed)
	for i := uint64(0); i < 5; i++ {
		s := skb.New(nil, 0)
		s.Seq = i
		if !st.NetifRx(nil, 0, s, h) {
			t.Fatal("enqueue failed")
		}
	}
	e.Run()
	if len(processed) != 5 {
		t.Fatalf("processed %d, want 5", len(processed))
	}
	for i, seq := range processed {
		if seq != uint64(i) {
			t.Fatalf("out of order: %v", processed)
		}
	}
}

// TestEntryQueueStaysBounded: a backlog kept non-empty through a million
// push/pop pairs keeps FIFO order and a bounded backing array.
func TestEntryQueueStaysBounded(t *testing.T) {
	var q sim.FIFO[backlogEntry]
	pkts := make([]*skb.SKB, 9)
	for i := range pkts {
		pkts[i] = skb.New(nil, 0)
	}
	for i := 0; i < 8; i++ {
		q.Push(backlogEntry{s: pkts[i]})
	}
	for i := 8; i < 1_000_000+8; i++ {
		q.Push(backlogEntry{s: pkts[i%9]})
		if e := q.Pop(); e.s != pkts[(i-8)%9] {
			t.Fatalf("pop %d: FIFO order broken", i-8)
		}
	}
	if q.Len() != 8 {
		t.Fatalf("len = %d, want 8", q.Len())
	}
	if c := q.Cap(); c > 64 {
		t.Fatalf("backing array grew to cap %d for 8 live entries", c)
	}
}

func TestNetifRxCountsNetRXPerActivation(t *testing.T) {
	e, st := newStack(1)
	var processed []uint64
	h := passthrough(&processed)
	// Burst of 10 packets while the softirq is pending: one activation.
	for i := 0; i < 10; i++ {
		st.NetifRx(nil, 0, skb.New(nil, 0), h)
	}
	e.Run()
	if got := st.M.IRQ.Core(0, stats.IRQNetRX); got != 1 {
		t.Fatalf("NET_RX = %d for one burst, want 1 (coalesced raise)", got)
	}
	// A second, later burst: second activation.
	st.NetifRx(nil, 0, skb.New(nil, 0), h)
	e.Run()
	if got := st.M.IRQ.Core(0, stats.IRQNetRX); got != 2 {
		t.Fatalf("NET_RX = %d after second burst, want 2", got)
	}
}

func TestNetifRxRemoteCountsRES(t *testing.T) {
	e, st := newStack(2)
	var processed []uint64
	h := passthrough(&processed)
	// A handler on core 0 that forwards to core 1 mid-softirq.
	fwd := func(c *cpu.Core, s *skb.SKB, done func()) {
		c.Exec(stats.CtxSoftIRQ, costmodel.FnBridge, 0, func() {
			st.NetifRx(c, 1, s, h)
			done()
		})
	}
	st.NetifRx(nil, 0, skb.New(nil, 0), fwd)
	e.Run()
	if len(processed) != 1 {
		t.Fatalf("processed = %d", len(processed))
	}
	if st.M.IRQ.Core(1, stats.IRQRES) != 1 {
		t.Fatalf("RES on core1 = %d, want 1", st.M.IRQ.Core(1, stats.IRQRES))
	}
	if st.M.IRQ.Core(1, stats.IRQNetRX) != 1 {
		t.Fatalf("NET_RX on core1 = %d, want 1", st.M.IRQ.Core(1, stats.IRQNetRX))
	}
}

func TestNetifRxBacklogOverflowDrops(t *testing.T) {
	e, st := newStack(1)
	st.MaxBacklog = 3
	var processed []uint64
	h := passthrough(&processed)
	ok := 0
	for i := 0; i < 10; i++ {
		if st.NetifRx(nil, 0, skb.New(nil, 0), h) {
			ok++
		}
	}
	if ok >= 10 {
		t.Fatal("no drops despite tiny backlog")
	}
	if st.Drops.Value() == 0 || st.BacklogDropped(0) == 0 {
		t.Fatal("drop counters not incremented")
	}
	e.Run()
	if len(processed) != ok {
		t.Fatalf("processed %d, admitted %d", len(processed), ok)
	}
}

func TestMigrationPenaltyCharged(t *testing.T) {
	e, st := newStack(2)
	var processed []uint64
	h := passthrough(&processed)
	s := skb.New(nil, 0)
	s.LastCore = 1 // pretend stage ran on core 1 before
	st.NetifRx(nil, 0, s, h)
	e.Run()
	if s.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", s.Migrations)
	}
	// Same-core processing must not count a migration.
	s2 := skb.New(nil, 0)
	s2.LastCore = 0
	st.NetifRx(nil, 0, s2, h)
	e.Run()
	if s2.Migrations != 0 {
		t.Fatalf("migrations = %d, want 0", s2.Migrations)
	}
}

func TestRunChainExecutesAllSteps(t *testing.T) {
	e, st := newStack(1)
	c := st.M.Core(0)
	doneRan := false
	steps := []Step{
		{Fn: costmodel.FnIPRcv},
		{Fn: costmodel.FnUDPRcv},
		{Fn: costmodel.FnSocketDeliver},
	}
	st.RunChain(c, stats.CtxSoftIRQ, steps, func() { doneRan = true })
	e.Run()
	if !doneRan {
		t.Fatal("chain completion not called")
	}
	want := st.M.Model.Cost(costmodel.FnIPRcv, 0) +
		st.M.Model.Cost(costmodel.FnUDPRcv, 0) +
		st.M.Model.Cost(costmodel.FnSocketDeliver, 0)
	if e.Now() != want {
		t.Fatalf("chain took %v, want %v", e.Now(), want)
	}
	if st.M.Acct.Calls(costmodel.FnUDPRcv) != 1 {
		t.Fatal("per-function profile not charged")
	}
}

func TestRunChainEmpty(t *testing.T) {
	e, st := newStack(1)
	ran := false
	st.RunChain(st.M.Core(0), stats.CtxSoftIRQ, nil, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("empty chain did not call then")
	}
}

// TestRunChainTooLongPanics: a chain longer than the inline step buffer
// is a caller bug, reported with the limit rather than run.
func TestRunChainTooLongPanics(t *testing.T) {
	_, st := newStack(1)
	steps := make([]Step, 5)
	for i := range steps {
		steps[i] = Step{Fn: costmodel.FnIPRcv}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("5-step chain did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "at most 4") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	st.RunChain(st.M.Core(0), stats.CtxSoftIRQ, steps, nil)
}

func TestPipelinedStagesRunConcurrently(t *testing.T) {
	// Two-stage pipeline across two cores: with N packets, total time
	// should approach max(stage cost) * N, not sum * N — the essence of
	// Falcon's softirq pipelining.
	const n = 200
	cost := 1 * sim.Microsecond

	run := func(stage2Core int) sim.Time {
		e, st := newStack(2)
		var delivered int
		stage2 := func(c *cpu.Core, s *skb.SKB, done func()) {
			c.Submit(stats.CtxSoftIRQ, costmodel.FnBacklog, cost, func() {
				delivered++
				done()
			})
		}
		stage1 := func(c *cpu.Core, s *skb.SKB, done func()) {
			c.Submit(stats.CtxSoftIRQ, costmodel.FnNAPIPoll, cost, func() {
				st.NetifRx(c, stage2Core, s, stage2)
				done()
			})
		}
		for i := 0; i < n; i++ {
			st.NetifRx(nil, 0, skb.New(nil, 0), stage1)
		}
		e.Run()
		if delivered != n {
			t.Fatalf("delivered %d, want %d", delivered, n)
		}
		return e.Now()
	}

	serial := run(0) // both stages on core 0 (vanilla overlay shape)
	piped := run(1)  // stage 2 on core 1 (Falcon shape)
	if float64(piped) > 0.75*float64(serial) {
		t.Fatalf("pipelining did not help: serial=%v piped=%v", serial, piped)
	}
}

// TestFirstDrainOnUnusedCore: a core makes its softirq continuations at
// its first drain. A packet for the highest core, never used before,
// drains, counts one NET_RX there and reaches the idle hook with a
// continuation to call.
func TestFirstDrainOnUnusedCore(t *testing.T) {
	const cores = 12
	e, st := newStack(cores)
	var processed []uint64
	flushes := 0
	st.OnDrained = func(c *cpu.Core, done func()) {
		flushes++
		done()
	}
	if !st.NetifRx(nil, cores-1, skb.New(nil, 0), passthrough(&processed)) {
		t.Fatal("enqueue failed")
	}
	e.Run()
	if len(processed) != 1 || flushes != 1 {
		t.Fatalf("processed %d packets and ran the idle hook %d times, want 1 and 1", len(processed), flushes)
	}
	for c := 0; c < cores; c++ {
		want := uint64(0)
		if c == cores-1 {
			want = 1
		}
		if got := st.M.IRQ.Core(c, stats.IRQNetRX); got != want {
			t.Fatalf("NET_RX on core %d = %d, want %d", c, got, want)
		}
	}
}

// TestPurgeWithMostCoresNeverDrained: on a 12-core stack where only core
// 0 ever drained, taking the stack down and purging counts every queued
// packet, and the drain loops the queued packets had scheduled wind down
// on empty queues.
func TestPurgeWithMostCoresNeverDrained(t *testing.T) {
	const cores = 12
	e, st := newStack(cores)
	var processed []uint64
	h := passthrough(&processed)
	st.NetifRx(nil, 0, skb.New(nil, 0), h)
	e.Run()
	queued := 0
	for _, c := range []int{0, 5, cores - 1} {
		for i := 0; i < 3; i++ {
			if !st.NetifRx(nil, c, skb.New(nil, 0), h) {
				t.Fatalf("enqueue on core %d failed", c)
			}
			queued++
		}
	}
	var drops stats.Counter
	st.SetDown(true, &drops)
	st.PurgeBacklogs(&drops)
	if got := drops.Value(); got != uint64(queued) {
		t.Fatalf("purge counted %d drops, want %d", got, queued)
	}
	e.Run()
	if len(processed) != 1 {
		t.Fatalf("processed %d packets after the purge, want only the first", len(processed))
	}
	for c := 0; c < cores; c++ {
		if n := st.BacklogLen(c); n != 0 {
			t.Fatalf("core %d backlog holds %d packets after the purge", c, n)
		}
		if _, _, pending, draining := st.BacklogState(c); draining {
			t.Fatalf("core %d still draining (pending %v)", c, pending)
		}
	}
}
