package cpu

import (
	"slices"
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

func newTestMachine(n int) (*sim.Engine, *Machine) {
	e := sim.New(1)
	m := NewMachine(e, costmodel.Kernel419(), n)
	return e, m
}

func TestMachineBasics(t *testing.T) {
	_, m := newTestMachine(4)
	if m.NumCores() != 4 {
		t.Fatalf("cores = %d", m.NumCores())
	}
	if m.Core(2).ID() != 2 {
		t.Fatal("core id mismatch")
	}
	if m.Core(0).Machine() != m {
		t.Fatal("machine backref wrong")
	}
}

func TestMachineCoreOutOfRangePanics(t *testing.T) {
	_, m := newTestMachine(2)
	defer func() {
		if recover() == nil {
			t.Error("Core(9) did not panic")
		}
	}()
	m.Core(9)
}

func TestNewMachineZeroCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero cores did not panic")
		}
	}()
	NewMachine(sim.New(1), costmodel.Kernel419(), 0)
}

func TestCoreExecutesAndCharges(t *testing.T) {
	e, m := newTestMachine(1)
	done := false
	m.Core(0).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 500, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("work item did not run")
	}
	if e.Now() != 500 {
		t.Fatalf("completion at %v, want 500", e.Now())
	}
	if m.Acct.Busy(0, stats.CtxSoftIRQ) != 500 {
		t.Fatalf("charged %d", m.Acct.Busy(0, stats.CtxSoftIRQ))
	}
	if m.Acct.CoreTime(0, costmodel.FnBridge) != 500 || m.Acct.Calls(costmodel.FnBridge) != 1 {
		t.Fatal("function time not charged")
	}
}

func TestCoreSerializesWork(t *testing.T) {
	e, m := newTestMachine(1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		m.Core(0).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, func() {
			order = append(order, i)
		})
	}
	e.Run()
	if e.Now() != 300 {
		t.Fatalf("three 100ns items finished at %v, want 300 (serialized)", e.Now())
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestCoresRunInParallel(t *testing.T) {
	e, m := newTestMachine(2)
	m.Core(0).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, nil)
	m.Core(1).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, nil)
	e.Run()
	if e.Now() != 100 {
		t.Fatalf("parallel items finished at %v, want 100", e.Now())
	}
}

func TestHardIRQPriority(t *testing.T) {
	e, m := newTestMachine(1)
	var order []string
	c := m.Core(0)
	// Submit a long softirq first; while it runs, queue a task then a
	// hardirq. The hardirq must run before the task.
	c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, func() { order = append(order, "soft") })
	c.Submit(stats.CtxTask, costmodel.FnAppWork, 100, func() { order = append(order, "task") })
	c.Submit(stats.CtxHardIRQ, costmodel.FnHardIRQ, 100, func() { order = append(order, "hard") })
	e.Run()
	want := []string{"soft", "hard", "task"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSoftirqBeforeTask(t *testing.T) {
	e, m := newTestMachine(1)
	var order []string
	c := m.Core(0)
	c.Submit(stats.CtxHardIRQ, costmodel.FnHardIRQ, 10, func() {
		c.Submit(stats.CtxTask, costmodel.FnAppWork, 10, func() { order = append(order, "task") })
		c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 10, func() { order = append(order, "soft") })
	})
	e.Run()
	if order[0] != "soft" || order[1] != "task" {
		t.Fatalf("order = %v", order)
	}
}

func TestKsoftirqdAntiStarvation(t *testing.T) {
	e, m := newTestMachine(1)
	c := m.Core(0)
	taskRan := false
	// Queue one task, then a continuous stream of softirqs that always
	// resubmit themselves. Without the anti-starvation rule the task
	// would never run.
	c.Submit(stats.CtxTask, costmodel.FnAppWork, 10, func() { taskRan = true })
	var resubmit func()
	count := 0
	resubmit = func() {
		count++
		if count < 100 {
			c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 10, resubmit)
		}
	}
	c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 10, resubmit)
	e.Run()
	if !taskRan {
		t.Fatal("task starved by continuous softirq stream")
	}
}

func TestCoreIdleAndQueueLen(t *testing.T) {
	e, m := newTestMachine(1)
	c := m.Core(0)
	if !c.Idle() {
		t.Fatal("fresh core not idle")
	}
	c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, nil)
	c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, nil)
	if c.Idle() {
		t.Fatal("busy core reported idle")
	}
	if c.QueueLen(stats.CtxSoftIRQ) != 1 { // one running, one queued
		t.Fatalf("queue len = %d", c.QueueLen(stats.CtxSoftIRQ))
	}
	e.Run()
	if !c.Idle() {
		t.Fatal("drained core not idle")
	}
}

func TestExecUsesModelCost(t *testing.T) {
	e, m := newTestMachine(1)
	m.Core(0).Exec(stats.CtxSoftIRQ, costmodel.FnBridge, 0, nil)
	e.Run()
	want := m.Model.Cost(costmodel.FnBridge, 0)
	if e.Now() != want {
		t.Fatalf("exec took %v, want %v", e.Now(), want)
	}
}

func TestTickerUpdatesLoad(t *testing.T) {
	e, m := newTestMachine(2)
	m.StartTicker()
	// Keep core 0 ~100% busy with softirq work for 10ms.
	var feed func()
	feed = func() {
		if e.Now() < 10*sim.Millisecond {
			m.Core(0).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100*sim.Microsecond, feed)
		}
	}
	feed()
	e.RunUntil(10 * sim.Millisecond)
	m.StopTicker()
	if l := m.Load.Load(0); l < 0.9 {
		t.Fatalf("core 0 load = %v, want ~1", l)
	}
	if l := m.Load.Load(1); l != 0 {
		t.Fatalf("core 1 load = %v, want 0", l)
	}
	if avg := m.Load.SystemAvg(); avg < 0.4 || avg > 0.6 {
		t.Fatalf("system avg = %v, want ~0.5", avg)
	}
	// Nothing subscribes, so the first tick was the only refresh.
	if m.Load.lastTick != int64(tickPeriod) {
		t.Fatalf("load meter last refreshed at %d, want the first tick at %v", m.Load.lastTick, tickPeriod)
	}
}

// TestLoadSurvivesMeasurementReset: a measurement reset between two
// ticks does not rewind the busy time the load meter reads, as no
// reset rewinds /proc/stat, so a saturated core still reads a load in
// [0, 1] on the next tick.
func TestLoadSurvivesMeasurementReset(t *testing.T) {
	e, m := newTestMachine(1)
	m.OnTick(func(sim.Time) {}) // keeps the machine ticking past the reset
	m.StartTicker()
	var feed func()
	feed = func() { m.Core(0).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100*sim.Microsecond, feed) }
	feed()
	e.RunUntil(2*sim.Millisecond + 500*sim.Microsecond)
	m.ResetMeasurement()
	e.RunUntil(3*sim.Millisecond + 1)
	m.StopTicker()
	if l := m.Load.Load(0); l < 0 || l > 1 {
		t.Fatalf("saturated core reads load %v after a reset, want [0, 1]", l)
	}
	if u := m.Acct.Utilization(0); u != 1 {
		t.Fatalf("utilization since the reset = %v, want 1", u)
	}
}

func TestOnTickCallback(t *testing.T) {
	e, m := newTestMachine(1)
	ticks := 0
	m.OnTick(func(now sim.Time) { ticks++ })
	m.StartTicker()
	e.RunUntil(5 * sim.Millisecond)
	m.StopTicker()
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	// StartTicker twice must not double-tick.
	m.StartTicker()
	m.StartTicker()
	e.RunUntil(10 * sim.Millisecond)
	m.StopTicker()
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
}

// TestTickLapsesWithoutSubscriber: a started machine with nothing
// subscribed ticks once, one period after the start, as a slot run, and
// then sets no further tick, so nothing is left pending.
func TestTickLapsesWithoutSubscriber(t *testing.T) {
	e, m := newTestMachine(2)
	m.StartTicker()
	e.RunUntil(10 * sim.Millisecond)
	if e.Fired() != 0 || e.Inlined() != 1 || e.Pending() != 0 {
		t.Fatalf("fired %d, inlined %d, pending %d; want 0, 1 and 0", e.Fired(), e.Inlined(), e.Pending())
	}
	if m.Load.lastTick != int64(tickPeriod) {
		t.Fatalf("load meter refreshed at %d, want %v", m.Load.lastTick, tickPeriod)
	}
}

// TestSubscriberRearmsLapsedTick: OnTick on a machine whose tick has
// lapsed sets it again at the next point of the phase StartTicker began,
// whether the subscriber comes between two points or on one.
func TestSubscriberRearmsLapsedTick(t *testing.T) {
	const start = 300 * sim.Microsecond
	for _, at := range []sim.Time{3500 * sim.Microsecond, 3300 * sim.Microsecond} {
		e, m := newTestMachine(1)
		e.RunUntil(start)
		m.StartTicker()
		var ticks []sim.Time
		e.At(at, func() { m.OnTick(func(now sim.Time) { ticks = append(ticks, now) }) })
		e.RunUntil(6 * sim.Millisecond)
		want := []sim.Time{start + 4*sim.Millisecond, start + 5*sim.Millisecond}
		if !slices.Equal(ticks, want) {
			t.Fatalf("subscribed at %v: ticks at %v, want %v", at, ticks, want)
		}
	}
}

// TestStopTickerDrains: after StopTicker a subscribed machine's tick is
// gone, so Run drains and leaves the clock at the last slice, not at a
// tick that would have come after it.
func TestStopTickerDrains(t *testing.T) {
	e, m := newTestMachine(1)
	ticks := 0
	m.OnTick(func(sim.Time) { ticks++ })
	m.StartTicker()
	m.Core(0).Submit(stats.CtxTask, costmodel.FnBridge, 2500*sim.Microsecond, nil)
	e.RunUntil(2 * sim.Millisecond)
	m.StopTicker()
	e.Run()
	if e.Now() != 2500*sim.Microsecond || ticks != 2 {
		t.Fatalf("drained at %v after %d ticks, want 2.5ms after 2", e.Now(), ticks)
	}
}

// TestTickerRestartsPhase: StopTicker then StartTicker starts a new
// phase, one period from the restart.
func TestTickerRestartsPhase(t *testing.T) {
	e, m := newTestMachine(1)
	var ticks []sim.Time
	m.OnTick(func(now sim.Time) { ticks = append(ticks, now) })
	m.StartTicker()
	e.RunUntil(2500 * sim.Microsecond)
	m.StopTicker()
	m.StartTicker()
	e.RunUntil(5 * sim.Millisecond)
	want := []sim.Time{1 * sim.Millisecond, 2 * sim.Millisecond, 3500 * sim.Microsecond, 4500 * sim.Microsecond}
	if !slices.Equal(ticks, want) {
		t.Fatalf("ticks at %v, want %v", ticks, want)
	}
}

// TestWorkQueueStaysBounded: a core's work queue kept non-empty through
// a million push/pop pairs never drains fully, so only the half-array
// compaction keeps its backing array from growing for the whole run.
func TestWorkQueueStaysBounded(t *testing.T) {
	var q sim.FIFO[workItem]
	for i := 0; i < 8; i++ {
		q.Push(workItem{cost: sim.Time(i)})
	}
	for i := 8; i < 1_000_000+8; i++ {
		q.Push(workItem{cost: sim.Time(i)})
		if it := q.Pop(); it.cost != sim.Time(i-8) {
			t.Fatalf("pop %d returned item %d: FIFO order broken", i-8, it.cost)
		}
	}
	if q.Len() != 8 {
		t.Fatalf("len = %d, want 8", q.Len())
	}
	if c := q.Cap(); c > 64 {
		t.Fatalf("backing array grew to cap %d for 8 live items", c)
	}
}

// TestRunAheadBudget: a zero-cost item that resubmits itself on an
// otherwise idle engine is always the engine's next step, so the core's
// slot runs forever without a single heap event. The event budget counts
// slot runs, so it still stops the runaway.
func TestRunAheadBudget(t *testing.T) {
	e, m := newTestMachine(1)
	c := m.Core(0)
	var spin func()
	spin = func() { c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 0, spin) }
	c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 0, spin)
	e.SetEventBudget(1000)
	defer func() {
		if _, ok := recover().(*sim.BudgetExceeded); !ok {
			t.Fatal("expected *sim.BudgetExceeded panic")
		}
		if e.Fired() != 0 || e.Inlined() != 1001 {
			t.Fatalf("fired %d, inlined %d; want 0 and 1001", e.Fired(), e.Inlined())
		}
	}()
	e.Run()
}

// TestRunAheadExact: slices run only while no other event comes first,
// and every completion lands at the same time either way.
func TestRunAheadExact(t *testing.T) {
	e, m := newTestMachine(1)
	c := m.Core(0)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, func() { done = append(done, e.Now()) })
	}
	// A tie at the second slice's completion: the timer was scheduled
	// first, so it fires first and the second slice waits for it.
	var timerAt sim.Time
	e.At(200, func() { timerAt = e.Now() })
	e.Run()
	want := []sim.Time{100, 200, 300}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions at %v, want %v", done, want)
		}
	}
	if timerAt != 200 {
		t.Fatalf("timer fired at %v, want 200", timerAt)
	}
	// Fired: the timer alone. The three completions are slot runs: the
	// first, the second when the timer returned, and the third straight
	// after the second.
	if e.Fired() != 1 || e.Inlined() != 3 {
		t.Fatalf("fired %d, inlined %d; want 1 and 3", e.Fired(), e.Inlined())
	}
	if m.Acct.Busy(0, stats.CtxSoftIRQ) != 300 {
		t.Fatalf("charged %d, want 300", m.Acct.Busy(0, stats.CtxSoftIRQ))
	}
}

func TestResetMeasurement(t *testing.T) {
	e, m := newTestMachine(1)
	m.Core(0).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, nil)
	m.IRQ.Inc(0, stats.IRQNetRX)
	e.Run()
	m.ResetMeasurement()
	if m.Acct.TotalBusy(0) != 0 ||
		m.Acct.CoreTime(0, costmodel.FnBridge) != 0 || m.Acct.Calls(costmodel.FnBridge) != 0 {
		t.Fatal("reset incomplete")
	}
	if m.IRQ.Total(stats.IRQNetRX) != 1 {
		t.Fatal("a measurement reset rewound the IRQ counters")
	}
}
