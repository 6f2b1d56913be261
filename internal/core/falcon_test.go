package core

import (
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

func newFalcon(cores int, cfg Config) (*sim.Engine, *cpu.Machine, *Falcon) {
	e := sim.New(1)
	m := cpu.NewMachine(e, costmodel.Kernel419(), cores)
	f := New(m, cfg)
	return e, m, f
}

func testSKB(flow uint16) *skb.SKB {
	s := skb.New(nil, 0)
	s.Hash = skb.FlowKey{SrcPort: flow, DstPort: 80, Proto: 17}.Hash()
	s.HashValid = true
	return s
}

func TestDisabledWithoutCPUs(t *testing.T) {
	_, _, f := newFalcon(4, Config{})
	if f.Enabled() {
		t.Fatal("falcon enabled with no CPUs")
	}
	if _, ok := f.GetCPU(testSKB(1), 1); ok {
		t.Fatal("placement succeeded with no CPUs")
	}
}

func TestStagesMapToDistinctCores(t *testing.T) {
	// The core property (Section 4.1): the same flow at different
	// devices should generally land on different cores.
	_, _, f := newFalcon(8, DefaultConfig([]int{0, 1, 2, 3, 4, 5, 6, 7}))
	s := testSKB(42)
	c1, ok1 := f.GetCPU(s, 1) // pNIC
	c2, ok2 := f.GetCPU(s, 2) // VXLAN
	c3, ok3 := f.GetCPU(s, 3) // veth
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("placement failed")
	}
	distinct := map[int]bool{c1: true, c2: true, c3: true}
	if len(distinct) < 2 {
		t.Fatalf("all stages on one core (%d); device hash ineffective", c1)
	}
}

func TestSameStageSameCore(t *testing.T) {
	// In-order guarantee: same flow + same device is always the same
	// core (when the first choice is not overloaded).
	_, _, f := newFalcon(8, DefaultConfig([]int{0, 1, 2, 3, 4, 5, 6, 7}))
	s := testSKB(7)
	c0, _ := f.GetCPU(s, 2)
	for i := 0; i < 100; i++ {
		if c, _ := f.GetCPU(s, 2); c != c0 {
			t.Fatal("placement not stable for same flow+device")
		}
	}
}

func TestPlacementWithinCPUSet(t *testing.T) {
	set := []int{2, 5, 7}
	_, _, f := newFalcon(8, DefaultConfig(set))
	allowed := map[int]bool{2: true, 5: true, 7: true}
	for flow := uint16(0); flow < 200; flow++ {
		for dev := 1; dev <= 3; dev++ {
			if c, ok := f.GetCPU(testSKB(flow), dev); ok && !allowed[c] {
				t.Fatalf("placed on core %d outside FALCON_CPUS", c)
			}
		}
	}
}

func TestLoadGateDisables(t *testing.T) {
	e, m, f := newFalcon(2, DefaultConfig([]int{0, 1}))
	m.StartTicker()
	// Saturate both cores so L_avg exceeds the threshold.
	var feed func(c int) func()
	feed = func(c int) func() {
		return func() {
			if e.Now() < 20*sim.Millisecond {
				m.Core(c).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 500*sim.Microsecond, feed(c))
			}
		}
	}
	feed(0)()
	feed(1)()
	e.RunUntil(20 * sim.Millisecond)
	m.StopTicker()
	if f.LAvg() < 0.9 {
		t.Fatalf("lavg = %v, want ~1", f.LAvg())
	}
	if f.Enabled() {
		t.Fatal("falcon enabled on an overloaded system")
	}
	if _, ok := f.GetCPU(testSKB(1), 1); ok {
		t.Fatal("placement served while gated off")
	}
	_, _, gated := f.Stats()
	if gated == 0 {
		t.Fatal("gate diagnostics not counted")
	}
}

func TestAlwaysOnIgnoresGate(t *testing.T) {
	cfg := DefaultConfig([]int{0, 1})
	cfg.AlwaysOn = true
	e, m, f := newFalcon(2, cfg)
	m.StartTicker()
	var feed func(c int) func()
	feed = func(c int) func() {
		return func() {
			if e.Now() < 10*sim.Millisecond {
				m.Core(c).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 500*sim.Microsecond, feed(c))
			}
		}
	}
	feed(0)()
	feed(1)()
	e.RunUntil(10 * sim.Millisecond)
	m.StopTicker()
	if !f.Enabled() {
		t.Fatal("always-on falcon disabled under load")
	}
}

func TestTwoChoiceAvoidsHotCore(t *testing.T) {
	e, m, f := newFalcon(4, DefaultConfig([]int{0, 1, 2, 3}))
	m.StartTicker()

	// Find which core flow 9/device 1 maps to, then saturate only it.
	s := testSKB(9)
	hot, _ := f.GetCPU(s, 1)

	var feed func()
	feed = func() {
		if e.Now() < 10*sim.Millisecond {
			m.Core(hot).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 200*sim.Microsecond, feed)
		}
	}
	feed()
	e.RunUntil(10 * sim.Millisecond)
	m.StopTicker()

	// L_avg is ~0.25 (one of four cores busy): falcon stays enabled, but
	// the first choice is hot, so the second choice must divert.
	if !f.Enabled() {
		t.Fatalf("falcon should remain enabled, lavg=%v", f.LAvg())
	}
	got, ok := f.GetCPU(s, 1)
	if !ok {
		t.Fatal("placement failed")
	}
	if got == hot {
		t.Fatalf("two-choice kept the hot core %d", hot)
	}
	_, second, _ := f.Stats()
	if second == 0 {
		t.Fatal("second-choice counter not incremented")
	}
}

func TestStaticBalancerSticksToHotCore(t *testing.T) {
	cfg := DefaultConfig([]int{0, 1, 2, 3})
	cfg.TwoChoice = false // the "static" variant of Fig. 16
	e, m, f := newFalcon(4, cfg)
	m.StartTicker()
	s := testSKB(9)
	hot, _ := f.GetCPU(s, 1)
	var feed func()
	feed = func() {
		if e.Now() < 10*sim.Millisecond {
			m.Core(hot).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 200*sim.Microsecond, feed)
		}
	}
	feed()
	e.RunUntil(10 * sim.Millisecond)
	m.StopTicker()
	if got, _ := f.GetCPU(s, 1); got != hot {
		t.Fatal("static balancer should not divert from hot core")
	}
}

func TestDefaultThresholdApplied(t *testing.T) {
	_, _, f := newFalcon(1, Config{CPUs: []int{0}})
	if f.Config().LoadThreshold != DefaultLoadThreshold {
		t.Fatalf("threshold = %v", f.Config().LoadThreshold)
	}
	if f.String() == "" {
		t.Fatal("empty string form")
	}
}

func TestPlacementSpreadsAcrossCPUSet(t *testing.T) {
	_, _, f := newFalcon(8, DefaultConfig([]int{0, 1, 2, 3, 4, 5, 6, 7}))
	seen := map[int]int{}
	for flow := uint16(0); flow < 400; flow++ {
		c, ok := f.GetCPU(testSKB(flow), 2)
		if !ok {
			t.Fatal("placement failed")
		}
		seen[c]++
	}
	if len(seen) != 8 {
		t.Fatalf("placements hit %d cores, want 8", len(seen))
	}
	for c, n := range seen {
		if n < 20 || n > 90 {
			t.Fatalf("core %d skewed: %d placements", c, n)
		}
	}
}

func TestLeastLoadedBalancerHerdsAndUnpins(t *testing.T) {
	cfg := DefaultConfig([]int{0, 1, 2, 3})
	cfg.LeastLoaded = true
	e, m, f := newFalcon(4, cfg)
	m.StartTicker()
	// With all loads equal (zero), every placement herds onto the same
	// (first) core regardless of flow or device — no hashing spread.
	for flow := uint16(0); flow < 50; flow++ {
		for dev := 1; dev <= 3; dev++ {
			if c, ok := f.GetCPU(testSKB(flow), dev); !ok || c != 0 {
				t.Fatalf("least-loaded did not herd: core %d", c)
			}
		}
	}
	// Load up core 0; after a tick the herd moves wholesale to another
	// core (the fluctuation the paper describes).
	var feed func()
	feed = func() {
		if e.Now() < 3*sim.Millisecond {
			m.Core(0).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 500*sim.Microsecond, feed)
		}
	}
	feed()
	e.RunUntil(3 * sim.Millisecond)
	m.StopTicker()
	c, ok := f.GetCPU(testSKB(1), 1)
	if !ok || c == 0 {
		t.Fatalf("herd did not move off the hot core: core %d", c)
	}
	// Same flow+device now maps to a different core than before: the
	// in-order pin is gone.
	if c2, _ := f.GetCPU(testSKB(1), 1); c2 != c {
		t.Fatal("inconsistent within a tick")
	}
}
