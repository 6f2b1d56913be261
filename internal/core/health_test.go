package core

import (
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// healthBed builds a machine with Falcon on cores 2..2+n-1 and a
// running ticker (health scans ride the timer tick).
func healthBed(n int) (*sim.Engine, *Falcon, []int) {
	cpus := make([]int, n)
	for i := range cpus {
		cpus[i] = 2 + i
	}
	e, m, f := newFalcon(2+n, DefaultConfig(cpus))
	m.StartTicker()
	return e, f, cpus
}

// wedge parks work on a core and freezes it, producing the queued-but-
// no-progress signal the tracker looks for.
func wedge(f *Falcon, core int) {
	c := f.m.Core(core)
	c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, nil)
	c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, nil)
	c.SetStalled(true)
}

func TestHealthBlacklistsStalledCoreWithHysteresis(t *testing.T) {
	e, f, cpus := healthBed(3)
	if len(f.HealthyCPUs()) != 3 {
		t.Fatal("not all cores healthy at start")
	}
	wedge(f, cpus[0])
	// Tick 1 still sees the pre-stall execution as progress, and a
	// single no-progress tick is below SickAfter (2): not blacklisted.
	e.RunUntil(2*sim.Millisecond + 1)
	if len(f.HealthyCPUs()) != 3 {
		t.Fatal("blacklisted before the sick streak completed")
	}
	e.RunUntil(3*sim.Millisecond + 1)
	if len(f.HealthyCPUs()) != 2 {
		t.Fatalf("healthy = %v after SickAfter ticks", f.HealthyCPUs())
	}
	if f.isHealthy(cpus[0]) {
		t.Fatal("wedged core still marked healthy")
	}
	if f.Degraded() {
		t.Fatal("degraded with 2 healthy cores (floor is 2)")
	}
}

// TestHealthBlacklistsStalledCoreAcrossReset: a measurement reset is
// not progress, so a core wedged across one is blacklisted on the same
// tick as without it.
func TestHealthBlacklistsStalledCoreAcrossReset(t *testing.T) {
	e, f, cpus := healthBed(3)
	wedge(f, cpus[0])
	e.RunUntil(1500 * sim.Microsecond)
	f.m.ResetMeasurement()
	e.RunUntil(3*sim.Millisecond + 1)
	if f.isHealthy(cpus[0]) {
		t.Fatalf("core wedged across a reset still healthy after SickAfter ticks; healthy = %v", f.HealthyCPUs())
	}
}

// TestHealthResetIsNotAStall: a saturated core with work queued keeps
// making progress across a measurement reset, so even a tracker that
// blacklists after one sick tick leaves it healthy.
func TestHealthResetIsNotAStall(t *testing.T) {
	cfg := DefaultConfig([]int{2, 3, 4})
	cfg.Health.SickAfter = 1
	e, m, f := newFalcon(5, cfg)
	m.StartTicker()
	c := m.Core(2)
	var feed func()
	feed = func() { c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 50*sim.Microsecond, feed) }
	feed()
	feed() // one slice always waits behind the running one
	e.RunUntil(2500 * sim.Microsecond)
	m.ResetMeasurement()
	e.RunUntil(5 * sim.Millisecond)
	m.StopTicker()
	if !f.isHealthy(2) {
		t.Fatalf("saturated core blacklisted across a reset; healthy = %v", f.HealthyCPUs())
	}
}

func TestHealthReinstatesAfterWellStreak(t *testing.T) {
	e, f, cpus := healthBed(3)
	wedge(f, cpus[1])
	e.RunUntil(3 * sim.Millisecond)
	if len(f.HealthyCPUs()) != 2 {
		t.Fatalf("healthy = %v", f.HealthyCPUs())
	}
	f.m.Core(cpus[1]).SetStalled(false)
	// Reinstatement needs WellAfter (4) consecutive healthy ticks.
	e.RunUntil(5 * sim.Millisecond)
	if len(f.HealthyCPUs()) == 3 {
		t.Fatal("reinstated before the well streak completed")
	}
	e.RunUntil(10 * sim.Millisecond)
	if len(f.HealthyCPUs()) != 3 {
		t.Fatalf("healthy = %v after recovery", f.HealthyCPUs())
	}
	// Reinstatement preserves configuration order.
	for i, c := range f.HealthyCPUs() {
		if c != 2+i {
			t.Fatalf("healthy order %v", f.HealthyCPUs())
		}
	}
}

func TestHealthNoFlapUnderRepeatedStalls(t *testing.T) {
	// Back-to-back stall faults: the core recovers for two ticks (below
	// WellAfter = 4) and wedges again, five times in a row. The
	// hysteresis must hold the core blacklisted through the whole churn —
	// one transition out, zero flaps — and reinstate exactly once after
	// the faults genuinely stop.
	e, f, cpus := healthBed(3)
	target := cpus[0]
	wedge(f, target)
	e.RunUntil(3*sim.Millisecond + 1)
	if f.isHealthy(target) {
		t.Fatal("stalled core not blacklisted")
	}

	for k := 0; k < 5; k++ {
		at := sim.Time(4+4*k) * sim.Millisecond
		e.At(at+100*sim.Microsecond, func() { f.m.Core(target).SetStalled(false) })
		e.At(at+2*sim.Millisecond+100*sim.Microsecond, func() { wedge(f, target) })
	}
	flips := 0
	for ms := 4; ms <= 23; ms++ {
		e.At(sim.Time(ms)*sim.Millisecond+500*sim.Microsecond, func() {
			if f.isHealthy(target) {
				flips++
			}
		})
	}
	e.RunUntil(24 * sim.Millisecond)
	if flips != 0 {
		t.Fatalf("blacklist flapped: core read healthy on %d mid-churn ticks", flips)
	}
	if f.Degraded() {
		t.Fatal("degraded with 2 healthy cores through the churn (floor is 2)")
	}

	// The faults stop for real: reinstatement after WellAfter clean ticks.
	e.At(24*sim.Millisecond+100*sim.Microsecond, func() { f.m.Core(target).SetStalled(false) })
	e.RunUntil(32 * sim.Millisecond)
	if !f.isHealthy(target) {
		t.Fatal("core never reinstated after the stalls stopped")
	}
	if len(f.HealthyCPUs()) != 3 {
		t.Fatalf("healthy = %v after recovery", f.HealthyCPUs())
	}
}

func TestHealthOfflineBlacklistsImmediately(t *testing.T) {
	e, f, cpus := healthBed(3)
	f.m.Core(cpus[2]).SetOffline(true)
	// Hotplug is a visible notification: one tick suffices.
	e.RunUntil(sim.Millisecond + 1)
	if len(f.HealthyCPUs()) != 2 {
		t.Fatalf("healthy = %v after offline tick", f.HealthyCPUs())
	}
}

func TestHealthBelowFloorDegradesAndRecovers(t *testing.T) {
	e, f, cpus := healthBed(3)
	f.m.Core(cpus[0]).SetOffline(true)
	f.m.Core(cpus[1]).SetOffline(true)
	e.RunUntil(sim.Millisecond + 1)
	if !f.Degraded() {
		t.Fatal("1 healthy core of floor 2: not degraded")
	}
	// Placement is declined while below the floor.
	if _, ok := f.GetCPU(testSKB(7), 1); ok {
		t.Fatal("placed a packet while degraded")
	}
	if f.Faults.Fallbacks.Value() == 0 {
		t.Fatal("fallback not counted")
	}
	f.m.Core(cpus[0]).SetOffline(false)
	f.m.Core(cpus[1]).SetOffline(false)
	e.RunUntil(20 * sim.Millisecond)
	if f.Degraded() {
		t.Fatal("still degraded after cores returned")
	}
	if f.Faults.DegradedNs.Value() == 0 {
		t.Fatal("degraded time not accounted")
	}
}

func TestHealthIdleCoresStayHealthy(t *testing.T) {
	// An idle core makes no progress but has nothing queued: that must
	// never read as sickness (the pre-chaos steady state).
	e, f, _ := healthBed(3)
	e.RunUntil(10 * sim.Millisecond)
	if len(f.HealthyCPUs()) != 3 || f.Degraded() {
		t.Fatalf("idle machine degraded: healthy=%v", f.HealthyCPUs())
	}
}

func TestHealthDisabledConfigSkipsTracking(t *testing.T) {
	cpus := []int{2, 3, 4}
	cfg := DefaultConfig(cpus)
	cfg.Health.Disabled = true
	e, m, f := newFalcon(5, cfg)
	m.StartTicker()
	wedge(f, 2)
	m.Core(3).SetOffline(true)
	e.RunUntil(10 * sim.Millisecond)
	if len(f.HealthyCPUs()) != 3 {
		t.Fatalf("disabled tracker blacklisted: %v", f.HealthyCPUs())
	}
}
