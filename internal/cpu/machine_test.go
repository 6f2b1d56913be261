package cpu

import (
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

func newTestMachine(n int) (*sim.Engine, *Machine) {
	e := sim.New(1)
	m := NewMachine(e, costmodel.Kernel419(), n, sim.Millisecond)
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
	NewMachine(sim.New(1), costmodel.Kernel419(), 0, sim.Millisecond)
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
	if m.IRQ.Total(stats.IRQTimer) == 0 {
		t.Fatal("no timer interrupts counted")
	}
}

// TestLoadSurvivesMeasurementReset: a measurement reset between two
// ticks does not rewind the busy time the load meter reads, as no
// reset rewinds /proc/stat, so a saturated core still reads a load in
// [0, 1] on the next tick.
func TestLoadSurvivesMeasurementReset(t *testing.T) {
	e, m := newTestMachine(1)
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
// otherwise idle engine is always the engine's next event, so the core
// runs it ahead inline forever inside one fired event. The event budget
// counts inlined slices, so it still stops the runaway.
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
		if e.Fired() != 1 || e.Inlined() != 1000 {
			t.Fatalf("fired %d, inlined %d; want 1 and 1000", e.Fired(), e.Inlined())
		}
	}()
	e.Run()
}

// TestRunAheadExact: slices inline only while no other event comes
// first, and every completion lands at the same time either way.
func TestRunAheadExact(t *testing.T) {
	e, m := newTestMachine(1)
	c := m.Core(0)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, func() { done = append(done, e.Now()) })
	}
	// A tie at the second slice's completion: the timer was scheduled
	// first, so it fires first and the second slice cannot inline.
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
	// Fired: the first completion and the timer. The second completion
	// ran inline when the timer returned and settled the group, and the
	// third slice ran ahead inside the second completion.
	if e.Fired() != 2 || e.Inlined() != 2 {
		t.Fatalf("fired %d, inlined %d; want 2 and 2", e.Fired(), e.Inlined())
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
	if m.Acct.TotalBusy(0) != 0 || m.IRQ.Total(stats.IRQNetRX) != 0 ||
		m.Acct.CoreTime(0, costmodel.FnBridge) != 0 || m.Acct.Calls(costmodel.FnBridge) != 0 {
		t.Fatal("reset incomplete")
	}
}
