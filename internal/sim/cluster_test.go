package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The synthetic PDES workload: nNodes logical nodes, each mapped to a
// shard, running a self-rescheduling event chain with private RNG
// draws, and posting messages to the next node over a "link" with
// linkDelay minimum latency plus jitter. A coordinator-side control
// event samples every node's counter each controlPeriod. Per-node
// traces plus the control trace must be identical for every shard
// count.
const (
	pdesNodes         = 4
	pdesLinkDelay     = Time(800)
	pdesControlPeriod = Time(50_000)
	pdesRunFor        = Time(500_000)
)

type pdesNode struct {
	id    int
	e     *Engine
	out   *PostSource // nil when the next node shares this engine
	rng   *Rand
	next  *pdesNode
	last  Time // latest arrival sent to next
	count uint64
	trace []string
}

// Local event times of node i are kept ≡ i (mod 8): every self-delay
// is a multiple of 8 and the start offset is i. Cross-node messages
// therefore never collide with destination-local events on both firing
// time and schedule time at once, which is the one tie the cluster
// cannot break serially (see DESIGN.md §6) — the traces below are then
// required to match exactly.
func (n *pdesNode) step() {
	n.count++
	n.trace = append(n.trace, fmt.Sprintf("step %d @%d", n.count, n.e.Now()))
	// Occasionally message the next node; arrival respects the link's
	// minimum latency, with jitter on top, and is clamped to be monotone
	// as Link.Send clamps it, on the serial path too.
	if n.rng.Intn(3) == 0 {
		at := max(n.e.Now()+pdesLinkDelay+Time(n.rng.Intn(500)), n.last)
		n.last = at
		if n.out == nil {
			n.next.e.At(at, func() { pdesRecv(n.next) })
		} else {
			n.out.Post(at, pdesRecv, n.next)
		}
	}
	n.e.After(Time(160+8*n.rng.Intn(40)), n.step)
}

func pdesRecv(v any) {
	n := v.(*pdesNode)
	n.count += 10
	n.trace = append(n.trace, fmt.Sprintf("recv %d @%d", n.count, n.e.Now()))
}

// runPDES builds and runs the synthetic workload, returning the
// per-node traces and the control-sample trace.
func runPDES(t *testing.T, shards int) ([][]string, []string) {
	t.Helper()
	c := NewCluster(1, shards, 1)
	nodes := make([]*pdesNode, pdesNodes)
	for i := range nodes {
		nodes[i] = &pdesNode{id: i, e: c.Shard(i), rng: c.Rand().Fork()}
	}
	for i, n := range nodes {
		n.next = nodes[(i+1)%len(nodes)]
		if n.next.e != n.e {
			n.out = c.Source(n.e, n.next.e, pdesLinkDelay)
		}
		n.e.After(Time(80*i+i), n.step)
	}
	var control []string
	var sample func()
	sample = func() {
		s := fmt.Sprintf("@%d:", c.Now())
		for _, n := range nodes {
			s += fmt.Sprintf(" %d", n.count)
		}
		control = append(control, s)
		c.After(pdesControlPeriod, sample)
	}
	c.After(pdesControlPeriod, sample)
	c.RunUntil(pdesRunFor)
	traces := make([][]string, len(nodes))
	for i, n := range nodes {
		traces[i] = n.trace
	}
	if got := c.Now(); got != pdesRunFor {
		t.Fatalf("shards=%d: Now()=%v after RunUntil(%v)", shards, got, pdesRunFor)
	}
	for i := 0; i < shards; i++ {
		if got := c.Shard(i).Now(); got != pdesRunFor {
			t.Fatalf("shards=%d: shard %d clock %v, want %v", shards, i, got, pdesRunFor)
		}
	}
	return traces, control
}

// TestClusterDeterminism: execution traces are byte-identical for every
// shard count, including the degenerate 1-shard cluster.
func TestClusterDeterminism(t *testing.T) {
	refTraces, refControl := runPDES(t, 1)
	for _, n := range refTraces {
		if len(n) == 0 {
			t.Fatal("reference run produced an empty trace")
		}
	}
	for _, shards := range []int{2, 4, 8} {
		traces, control := runPDES(t, shards)
		if !reflect.DeepEqual(traces, refTraces) {
			t.Errorf("shards=%d: node traces diverge from serial", shards)
		}
		if !reflect.DeepEqual(control, refControl) {
			t.Errorf("shards=%d: control samples diverge from serial\n got %v\nwant %v",
				shards, control, refControl)
		}
	}
}

// TestAutoShards: -shards auto is one LP per host from autoMinHosts up
// and the serial engine below, on one goroutine, whatever the machine.
func TestAutoShards(t *testing.T) {
	for _, tc := range []struct{ hosts, shards int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 1}, {3, 1}, {7, 1}, {8, 8}, {16, 16}, {64, 64},
	} {
		if shards, workers := AutoShards(tc.hosts); shards != tc.shards || workers != 1 {
			t.Errorf("AutoShards(%d) = %d, %d; want %d, 1", tc.hosts, shards, workers, tc.shards)
		}
	}
}

// TestNewClusterOneGoroutine: a cluster runs every LP on the caller's
// goroutine, so asking for more workers is a caller bug.
func TestNewClusterOneGoroutine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster with 2 workers did not panic")
		}
	}()
	NewCluster(1, 4, 2)
}

// TestClusterHorizonGuard: posting a message that would arrive inside
// the lookahead horizon must panic — the lookahead was overestimated.
func TestClusterHorizonGuard(t *testing.T) {
	c := NewCluster(1, 2, 1)
	src := c.Source(c.Shard(0), c.Shard(1), 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("expected horizon-violation panic")
		}
	}()
	src.Post(999, func(any) {}, nil)
}

// TestClusterPostOutOfOrderPanics: an arrival before the previous one
// through the same source must panic — the source's inbox would fire
// out of order. An arrival equal to the previous one is legal.
func TestClusterPostOutOfOrderPanics(t *testing.T) {
	c := NewCluster(1, 2, 1)
	src := c.Source(c.Shard(0), c.Shard(1), 1000)
	nop := func(any) {}
	src.Post(2000, nop, nil)
	src.Post(2000, nop, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-order post did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "arrivals must be monotone") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	src.Post(1999, nop, nil)
}

// TestClusterPending: Pending counts a cross-shard message from its
// post until it is delivered — parked in the outbox, then waiting in
// the inbox — besides every scheduled event and each engine's slot group
// (one while any slot is set), here the receiving shard's inbox slot.
func TestClusterPending(t *testing.T) {
	c := NewCluster(1, 2, 1)
	src := c.Source(c.Shard(0), c.Shard(1), 1000)
	delivered := 0
	for _, at := range []Time{1000, 1001, 1002} {
		src.Post(at, func(any) { delivered++ }, nil)
	}
	for _, step := range []struct {
		run       func()
		pending   int
		delivered int
		stage     string
	}{
		{func() {}, 3, 0, "in the outbox"},
		{c.drain, 4, 0, "in the inbox"},
		{func() { c.RunUntil(1000) }, 3, 1, "after one delivery"},
		{func() { c.RunUntil(2000) }, 0, 3, "after every delivery"},
	} {
		step.run()
		if got := c.Pending(); got != step.pending || delivered != step.delivered {
			t.Fatalf("%s: Pending %d with %d delivered, want %d with %d",
				step.stage, got, delivered, step.pending, step.delivered)
		}
	}
}

// TestClusterPostAtHorizonOK: arrival exactly at now+lookahead is legal
// and delivered at the right time on the destination shard.
func TestClusterPostAtHorizonOK(t *testing.T) {
	c := NewCluster(1, 2, 1)
	src, dst := c.Shard(0), c.Shard(1)
	out := c.Source(src, dst, 1000)
	var deliveredAt Time = -1
	src.After(0, func() {
		out.Post(src.Now()+1000, func(any) {
			deliveredAt = dst.Now()
		}, nil)
	})
	c.RunUntil(10_000)
	if deliveredAt != 1000 {
		t.Fatalf("cross-shard delivery at %v, want 1000", deliveredAt)
	}
}

// TestNextAtLowerBound: NextAt is exact — running to just before the
// reported time fires nothing, running to it fires something, and
// repeating the probe-and-advance loop reaches every event.
func TestNextAtLowerBound(t *testing.T) {
	e := New(7)
	rng := NewRand(99)
	want := 0
	for i := 0; i < 200; i++ {
		// Delays from 0 to just under 2^32 ns, drawn in 64 bits so that
		// 32-bit targets draw the same ones.
		d := Time(rng.Uint64() % (1 << uint(4*rng.Intn(9))))
		e.After(d, func() { want-- })
		want++
	}
	for {
		next, ok := e.NextAt()
		if !ok {
			break
		}
		fired := e.Fired()
		if next > e.Now() {
			e.RunUntil(next - 1)
			if e.Fired() != fired {
				t.Fatalf("NextAt=%v overestimated: events fired before it", next)
			}
		}
		e.RunUntil(next)
		if e.Fired() == fired {
			t.Fatalf("NextAt=%v underestimated: nothing fired at it", next)
		}
	}
	if want != 0 {
		t.Fatalf("%d events unaccounted for", want)
	}
}

// TestClusterBudget: an event-budget overrun inside an LP surfaces as
// the usual *BudgetExceeded panic.
func TestClusterBudget(t *testing.T) {
	c := NewCluster(1, 2, 1)
	for i := 0; i < 2; i++ {
		e := c.Shard(i)
		var spin func()
		spin = func() { e.After(10, spin) }
		e.After(0, spin)
	}
	c.SetEventBudget(50)
	defer func() {
		if _, ok := recover().(*BudgetExceeded); !ok {
			t.Fatal("expected *BudgetExceeded panic")
		}
	}()
	c.RunUntil(1_000_000)
}

// staleClockTopology builds the one hazard the lookahead check cannot
// see: shard 0 sends through shard 1's endpoint while shard 1 is still
// parked at the barrier. The lookahead check is computed against the
// endpoint's own (stale) clock, 0, so an arrival at 12 µs passes it
// (0 + 10 µs <= 12 µs) whenever shard 0 posts. Shard 0 posts at fireAt,
// the earliest LP event, so the window runs to fireAt + 10 µs - 1 ns.
func staleClockTopology(fireAt Time) (*Cluster, *Time) {
	c := NewCluster(1, 2, 1)
	s0, s1 := c.Shard(0), c.Shard(1)
	out := c.Source(s1, s0, 10_000)
	deliveredAt := Time(-1)
	s0.After(fireAt, func() {
		out.Post(12_000, func(any) { deliveredAt = s0.Now() }, nil)
	})
	s1.After(5_000, func() {})
	return c, &deliveredAt
}

// TestClusterAdaptiveGuard: the window guard in Post. With shard 0's
// event at 3 µs the window is [3000, 12999], so the stale-clock post's
// 12000 ns arrival lands inside it and must abort deterministically
// rather than deliver a message into a window already under way.
func TestClusterAdaptiveGuard(t *testing.T) {
	c, _ := staleClockTopology(3_000)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stale-clock post inside the active window did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "endpoint's clock lags the window") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	c.RunUntil(100_000)
}

// TestClusterAdaptiveGuardFixedOK: the same post made at time 0 is
// legal (the window is [0, 9999], so the arrival is outside every
// window) and must be delivered at its exact time — the guard rejects
// only arrivals inside the window that produced them.
func TestClusterAdaptiveGuardFixedOK(t *testing.T) {
	c, deliveredAt := staleClockTopology(0)
	c.RunUntil(100_000)
	if *deliveredAt != 12_000 {
		t.Fatalf("stale-clock post delivered at %v, want 12000", *deliveredAt)
	}
}

// runAsym runs a workload whose sources declare unequal lookaheads:
// shard 0 steps densely with a wide outgoing lookahead (8000ns), while
// shard 2 steps rarely with a tight one (800ns), the minimum over all
// sources, which bounds every window. Shard 1 only receives. Senders
// stop 20 µs before the end, so every message is delivered. With
// serial set, the same workload runs on the serial engine, each post
// an At event on the receiver. It returns the delivery trace, the
// deliveries and the executed events (fired plus inlined).
func runAsym(t *testing.T, serial bool) ([]string, uint64, uint64) {
	t.Helper()
	var s Sim = New(5)
	if !serial {
		s = NewCluster(5, 3, 1)
	}
	ae, be, ce := s.Shard(0), s.Shard(1), s.Shard(2)
	post := func(src *Engine, look Time) func(Time, func(any)) {
		if serial {
			return func(at Time, fn func(any)) { be.At(at, func() { fn(nil) }) }
		}
		out := s.(*Cluster).Source(src, be, look)
		return func(at Time, fn func(any)) { out.Post(at, fn, nil) }
	}
	ab, cb := post(ae, 8000), post(ce, 800)
	var trace []string
	rngA, rngC := s.Rand().Fork(), s.Rand().Fork()
	var stepA, stepC func()
	stepA = func() {
		ab(ae.Now()+8000+Time(rngA.Intn(100)), func(any) {
			trace = append(trace, fmt.Sprintf("a@%d", be.Now()))
		})
		if ae.Now() < 280_000 {
			ae.After(Time(150+rngA.Intn(100)), stepA)
		}
	}
	stepC = func() {
		cb(ce.Now()+800+Time(rngC.Intn(100)), func(any) {
			trace = append(trace, fmt.Sprintf("c@%d", be.Now()))
		})
		if ce.Now() < 280_000 {
			ce.After(Time(18_000+rngC.Intn(4_000)), stepC)
		}
	}
	ae.After(0, stepA)
	ce.After(7, stepC)
	s.RunUntil(300_000)
	msgs := uint64(len(trace))
	if cl, ok := s.(*Cluster); ok {
		msgs = cl.Stats().Msgs
	}
	return trace, msgs, s.Fired() + s.Inlined()
}

// TestClusterAdaptiveWindowsWider: sources with unequal lookaheads are
// legal, and the 3-LP run of runAsym delivers exactly the serial
// engine's schedule: the same trace, every posted message delivered
// once, and the same executed events (a delivery is an At event
// serially and an inbox slot run on the cluster, one each).
func TestClusterAdaptiveWindowsWider(t *testing.T) {
	serialTrace, _, serialExec := runAsym(t, true)
	trace, msgs, exec := runAsym(t, false)
	if len(serialTrace) == 0 {
		t.Fatal("workload produced no deliveries")
	}
	if !reflect.DeepEqual(trace, serialTrace) {
		t.Fatalf("delivery schedule differs from the serial engine\nserial:  %v\nsharded: %v",
			serialTrace, trace)
	}
	if msgs != uint64(len(trace)) {
		t.Fatalf("%d cross-shard messages for %d deliveries", msgs, len(trace))
	}
	if exec != serialExec {
		t.Fatalf("executed events: serial %d, sharded %d", serialExec, exec)
	}
}

// BenchmarkClusterDrain measures the barrier drain and the deliveries
// after it: 12 sources (a 4-shard full mesh) each park a sorted run of
// messages, the drain moves them into the sources' inboxes, and the
// destination engines deliver them through their slots. After warmup
// nothing allocates — outboxes and inboxes keep their capacity and a
// delivery is a slot run, so allocs/op ~ 0.
func BenchmarkClusterDrain(b *testing.B) {
	const nShards, msgsPerSrc = 4, 64
	c := NewCluster(1, nShards, 1)
	var srcs []*PostSource
	for i := 0; i < nShards; i++ {
		for j := 0; j < nShards; j++ {
			if i != j {
				srcs = append(srcs, c.Source(c.Shard(i), c.Shard(j), 100))
			}
		}
	}
	nop := func(any) {}
	rng := NewRand(7)
	base := Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, s := range srcs {
			at := base + 100
			for k := 0; k < msgsPerSrc; k++ {
				at += Time(rng.Intn(16))
				s.Post(at, nop, nil)
			}
		}
		c.drain()
		base += 100 + Time(msgsPerSrc*16)
		for i := 0; i < nShards; i++ {
			c.Shard(i).RunUntil(base)
		}
	}
}

// TestClusterStop: Stop from a control event halts the run at that
// barrier, leaving later work pending.
func TestClusterStop(t *testing.T) {
	c := NewCluster(1, 2, 1)
	e := c.Shard(0)
	ran := 0
	var spin func()
	spin = func() { ran++; e.After(1000, spin) }
	e.After(0, spin)
	c.At(10_000, c.Stop)
	c.RunUntil(1_000_000)
	if c.Pending() == 0 {
		t.Fatal("Stop left no pending work")
	}
	if ran == 0 || ran > 11 {
		t.Fatalf("ran %d LP events before Stop, want ~10", ran)
	}
}

// TestClusterSlotsFireNothing: when only slots are ever set — a slice on
// each shard that re-sets itself, as a busy core's does, and the inbox
// slots of the cross-shard messages it posts — no heap event fires over
// many windows: every step is a slot run, window starts included.
func TestClusterSlotsFireNothing(t *testing.T) {
	c := NewCluster(1, 2, 1)
	var delivered [2]int
	for i := range 2 {
		e := c.Shard(i)
		out := c.Source(e, c.Shard(1-i), 1000)
		var slice Slots
		runs := 0
		slice = e.NewSlots(1, func(int) {
			if runs++; runs%4 == 0 {
				out.Post(e.Now()+1000, func(any) { delivered[1-i]++ }, nil)
			}
			slice.Set(0, e.Now()+100)
		})
		slice.Set(0, Time(10*i))
	}
	c.RunUntil(20_000)
	if w := c.Stats().Windows; w < 10 {
		t.Fatalf("%d windows, want at least 10", w)
	}
	if delivered[0] == 0 || delivered[1] == 0 {
		t.Fatalf("delivered %v, want messages both ways", delivered)
	}
	if f, n := c.Fired(), c.Inlined(); f != 0 || n == 0 {
		t.Fatalf("fired %d, inlined %d; want 0 and every step a slot run", f, n)
	}
}
