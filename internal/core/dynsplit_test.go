package core

import (
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// driveCore keeps a core busy with the given function at the given duty
// cycle for the run duration.
func driveCore(e *sim.Engine, m *machineIface, core int, fn costmodel.Func, busyFrac float64, until sim.Time) {
	period := 100 * sim.Microsecond
	busy := sim.Time(float64(period) * busyFrac)
	var loop func()
	loop = func() {
		if e.Now() >= until {
			return
		}
		m.core(core).Submit(stats.CtxSoftIRQ, fn, busy, func() {
			e.After(period-busy, loop)
		})
	}
	loop()
}

// machineIface narrows cpu.Machine for the helper.
type machineIface struct {
	f *Falcon
}

func (mi *machineIface) core(i int) coreIface { return mi.f.m.Core(i) }

type coreIface interface {
	Submit(ctx stats.CPUContext, fn costmodel.Func, cost sim.Time, done func())
}

func TestDynamicSplitEngagesUnderGROSaturation(t *testing.T) {
	e, m, f := newFalcon(4, DefaultConfig([]int{1, 2, 3}))
	f.cfg.GROSplit = false // dynamic controller overrides statics anyway
	f.EnableDynamicGROSplit([]int{0})
	m.StartTicker()

	// Saturate core 0 with GRO-dominated work (the TCP-4K shape).
	mi := &machineIface{f: f}
	driveCore(e, mi, 0, costmodel.FnGROReceive, 0.97, 40*sim.Millisecond)
	e.RunUntil(40 * sim.Millisecond)
	m.StopTicker()

	if !f.DynamicSplitActive() {
		t.Fatal("dynamic split did not engage under GRO saturation")
	}
	if !f.GROSplitOn() {
		t.Fatal("GROSplitOn should reflect the dynamic decision")
	}
}

func TestDynamicSplitStaysOffForNonGROLoad(t *testing.T) {
	e, m, f := newFalcon(4, DefaultConfig([]int{1, 2, 3}))
	f.EnableDynamicGROSplit([]int{0})
	m.StartTicker()

	// Saturate core 0 with allocation-dominated work (the UDP shape:
	// GRO is not the bottleneck, so splitting would relocate nothing).
	mi := &machineIface{f: f}
	driveCore(e, mi, 0, costmodel.FnSKBAlloc, 0.97, 40*sim.Millisecond)
	e.RunUntil(40 * sim.Millisecond)
	m.StopTicker()

	if f.DynamicSplitActive() {
		t.Fatal("dynamic split engaged without GRO dominance")
	}
	if f.GROSplitOn() {
		t.Fatal("dynamic controller must override the static flag")
	}
}

func TestDynamicSplitDisengagesWhenIdle(t *testing.T) {
	e, m, f := newFalcon(4, DefaultConfig([]int{1, 2, 3}))
	f.EnableDynamicGROSplit([]int{0})
	m.StartTicker()

	mi := &machineIface{f: f}
	driveCore(e, mi, 0, costmodel.FnGROReceive, 0.97, 30*sim.Millisecond)
	e.RunUntil(30 * sim.Millisecond)
	if !f.DynamicSplitActive() {
		t.Fatal("split never engaged")
	}
	// Load vanishes; the controller must release the split.
	e.RunUntil(60 * sim.Millisecond)
	m.StopTicker()
	if f.DynamicSplitActive() {
		t.Fatal("split did not disengage after load dropped")
	}
}

func TestDynamicSplitHysteresisMidLoad(t *testing.T) {
	// Between the off and on thresholds, the current state holds.
	e, m, f := newFalcon(4, DefaultConfig([]int{1, 2, 3}))
	f.EnableDynamicGROSplit([]int{0})
	m.StartTicker()
	mi := &machineIface{f: f}
	// Engage first.
	driveCore(e, mi, 0, costmodel.FnGROReceive, 0.97, 30*sim.Millisecond)
	e.RunUntil(30 * sim.Millisecond)
	if !f.DynamicSplitActive() {
		t.Fatal("split never engaged")
	}
	// Mid load (0.8): above off-threshold, below on-threshold → hold.
	driveCore(e, mi, 0, costmodel.FnGROReceive, 0.80, 60*sim.Millisecond)
	e.RunUntil(60 * sim.Millisecond)
	m.StopTicker()
	if !f.DynamicSplitActive() {
		t.Fatal("hysteresis failed: split released in the hold band")
	}
}

func TestDynamicSplitSurvivesProfileReset(t *testing.T) {
	e, m, f := newFalcon(4, DefaultConfig([]int{1, 2, 3}))
	f.EnableDynamicGROSplit([]int{0})
	m.StartTicker()
	mi := &machineIface{f: f}
	driveCore(e, mi, 0, costmodel.FnGROReceive, 0.97, 50*sim.Millisecond)
	e.RunUntil(20 * sim.Millisecond)
	m.ResetMeasurement() // starts a measurement window mid-run
	e.RunUntil(50 * sim.Millisecond)
	m.StopTicker()
	if !f.DynamicSplitActive() {
		t.Fatal("controller lost the split across a measurement reset")
	}
}
