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
			n.out.Post(at, nil, pdesRecv, n.next)
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
	src.Post(999, nil, func(any) {}, nil)
}

// TestClusterPostOutOfOrderPanics: an arrival before the previous one
// through the same source must panic — the source's inbox would fire
// out of order. An arrival equal to the previous one is legal.
func TestClusterPostOutOfOrderPanics(t *testing.T) {
	c := NewCluster(1, 2, 1)
	src := c.Source(c.Shard(0), c.Shard(1), 1000)
	nop := func(any) {}
	src.Post(2000, nil, nop, nil)
	src.Post(2000, nil, nop, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-order post did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "arrivals must be monotone") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	src.Post(1999, nil, nop, nil)
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
		src.Post(at, nil, func(any) { delivered++ }, nil)
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
		out.Post(src.Now()+1000, nil, func(any) {
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

// setAdaptive toggles adaptive safe-horizon windows. On (the default),
// window ends are derived per-window from each busy shard's next event
// and its sources' lookaheads; off, every window is clipped to the
// minimum lookahead over all sources. The static bound is the reference these tests hold
// the adaptive derivation to: the event schedule must be byte-identical
// either way.
func (c *Cluster) setAdaptive(on bool) { c.adaptive = on }

// staleClockTopology builds the one hazard the adaptive horizon adds
// over the static one: shard 0 sends through shard 1's endpoint while
// shard 1 is still parked at the barrier. The per-endpoint lookahead
// check is computed against the endpoint's own (stale) clock, so the
// arrival can land inside a window that was widened using shard 1's
// next *pending* event — which is later than its clock.
func staleClockTopology(adaptive bool) (*Cluster, *Time) {
	c := NewCluster(1, 2, 1)
	c.setAdaptive(adaptive)
	s0, s1 := c.Shard(0), c.Shard(1)
	out := c.Source(s1, s0, 10_000)
	deliveredAt := Time(-1)
	s0.After(0, func() {
		// at=12_000 respects out's declared bound against s1's parked
		// clock (0 + 10_000 <= 12_000) but the adaptive window runs to
		// nexts[1] + 10_000 - 1 = 14_999, so the arrival is inside it.
		out.Post(12_000, nil, func(any) { deliveredAt = s0.Now() }, nil)
	})
	s1.After(5_000, func() {})
	return c, &deliveredAt
}

// TestClusterAdaptiveGuard: the runtime check behind the adaptive
// horizon's safety argument. A stale-clock post that would land inside
// the active window must abort deterministically rather than deliver a
// message the window's derivation assumed impossible.
func TestClusterAdaptiveGuard(t *testing.T) {
	c, _ := staleClockTopology(true)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stale-clock post inside the adaptive window did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "adaptive horizon unsafe") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	c.RunUntil(100_000)
}

// TestClusterAdaptiveGuardFixedOK: the same post is legal under static
// horizons (windows never extend past tLP+L-1, so the arrival is
// outside every window) and must be delivered at its exact time — the
// guard rejects only what the adaptive derivation cannot prove safe.
func TestClusterAdaptiveGuardFixedOK(t *testing.T) {
	c, deliveredAt := staleClockTopology(false)
	c.RunUntil(100_000)
	if *deliveredAt != 12_000 {
		t.Fatalf("stale-clock post delivered at %v under static horizons, want 12000", *deliveredAt)
	}
}

// runAsym is a workload where adaptive horizons should pay off: shard 0
// steps densely but declares a wide outgoing lookahead (8000ns), while
// shard 2 steps rarely with a tight one (800ns), the minimum over all
// sources. Static windows are clipped to that 800ns on every round;
// adaptive windows stretch to shard 0's declared lookahead whenever
// shard 2's next event is far away. Shard 1 only receives.
func runAsym(t *testing.T, adaptive bool) ([]string, ClusterStats, uint64) {
	t.Helper()
	c := NewCluster(5, 3, 1)
	c.setAdaptive(adaptive)
	ae, be, ce := c.Shard(0), c.Shard(1), c.Shard(2)
	ab, cb := c.Source(ae, be, 8000), c.Source(ce, be, 800)
	var trace []string
	rngA, rngC := c.Rand().Fork(), c.Rand().Fork()
	var stepA, stepC func()
	stepA = func() {
		ab.Post(ae.Now()+8000+Time(rngA.Intn(100)), nil, func(any) {
			trace = append(trace, fmt.Sprintf("a@%d", be.Now()))
		}, nil)
		ae.After(Time(150+rngA.Intn(100)), stepA)
	}
	stepC = func() {
		cb.Post(ce.Now()+800+Time(rngC.Intn(100)), nil, func(any) {
			trace = append(trace, fmt.Sprintf("c@%d", be.Now()))
		}, nil)
		ce.After(Time(18_000+rngC.Intn(4_000)), stepC)
	}
	ae.After(0, stepA)
	ce.After(7, stepC)
	c.RunUntil(300_000)
	return trace, c.Stats(), c.Fired() + c.Inlined()
}

// TestClusterAdaptiveWindowsWider is the perf property of adaptive
// horizons, asserted rather than eyeballed: on the asymmetric workload
// the adaptive run needs a small fraction of the static run's barriers,
// and the delivery schedule stays byte-identical — windows change, the
// simulation does not. Both runs are sharded, so the executed events
// (fired plus inlined) must match too: adaptive horizons may only move
// window barriers, never an event.
func TestClusterAdaptiveWindowsWider(t *testing.T) {
	fixedTrace, fixedStats, fixedExec := runAsym(t, false)
	adptTrace, adptStats, adptExec := runAsym(t, true)
	if len(fixedTrace) == 0 {
		t.Fatal("workload produced no deliveries")
	}
	if !reflect.DeepEqual(adptTrace, fixedTrace) {
		t.Fatalf("delivery schedule changed under adaptive horizons\nfixed:    %v\nadaptive: %v",
			fixedTrace, adptTrace)
	}
	if adptStats.Msgs != fixedStats.Msgs {
		t.Fatalf("cross-shard message count changed: fixed %d, adaptive %d",
			fixedStats.Msgs, adptStats.Msgs)
	}
	if adptExec != fixedExec {
		t.Fatalf("executed events changed: fixed %d, adaptive %d", fixedExec, adptExec)
	}
	if 2*adptStats.Windows >= fixedStats.Windows {
		t.Fatalf("adaptive horizons did not widen windows: %d windows adaptive vs %d static",
			adptStats.Windows, fixedStats.Windows)
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
				s.Post(at, nil, nop, nil)
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
				out.Post(e.Now()+1000, nil, func(any) { delivered[1-i]++ }, nil)
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
