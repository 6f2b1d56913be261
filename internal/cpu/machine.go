// Package cpu models a multi-core machine executing the kernel datapath:
// cores with prioritized hardirq/softirq/task contexts, non-preemptive
// work items, ksoftirqd-style anti-starvation, one CPU ledger charged
// once per slice by context and by function, and the periodic timer
// tick that refreshes the per-core load estimate Falcon's Algorithm 1
// reads.
package cpu

import (
	"fmt"

	"falcon/internal/costmodel"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// ksoftirqdBatch bounds consecutive softirq items run while tasks are
// waiting on the same core. After this many, one task item is allowed to
// run — the simulation analogue of softirq work being deferred to
// ksoftirqd under sustained load so user threads are not fully starved.
const ksoftirqdBatch = 16

// Machine is a simulated multi-core host.
type Machine struct {
	E     *sim.Engine
	Model *costmodel.Model
	Acct  *Ledger // every slice's CPU time, by core, context and function
	IRQ   *stats.IRQCounters
	Load  *LoadMeter
	// Prof is a second name for Acct, kept only for bench/, which reads
	// function call counts through it.
	Prof *Ledger

	cores      []*Core
	slices     sim.Slots // one slice-completion slot per core
	tickPeriod sim.Time
	onTick     []func(now sim.Time)
	ticker     sim.Timer
}

// NewMachine builds a machine with n cores on engine e using the given
// cost model. tickPeriod is the timer-tick interval used for load
// estimation (the kernel's do_timer cadence; the paper samples
// /proc/stat from it).
func NewMachine(e *sim.Engine, model *costmodel.Model, n int, tickPeriod sim.Time) *Machine {
	if n <= 0 {
		panic("cpu: machine needs at least one core")
	}
	m := &Machine{
		E:          e,
		Model:      model,
		Acct:       newLedger(n),
		IRQ:        stats.NewIRQCounters(n),
		Load:       newLoadMeter(n),
		tickPeriod: tickPeriod,
	}
	m.Prof = m.Acct
	m.cores = make([]*Core, n)
	for i := range m.cores {
		m.cores[i] = &Core{id: i, m: m}
	}
	m.slices = e.NewSlots(n, m.complete)
	return m
}

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core i.
func (m *Machine) Core(i int) *Core {
	if i < 0 || i >= len(m.cores) {
		panic(fmt.Sprintf("cpu: core %d out of range [0,%d)", i, len(m.cores)))
	}
	return m.cores[i]
}

// OnTick registers a callback invoked on every timer tick (after the
// load meter refresh). Falcon registers its L_avg update here.
func (m *Machine) OnTick(fn func(now sim.Time)) {
	m.onTick = append(m.onTick, fn)
}

// StartTicker begins the periodic timer tick. Each tick refreshes the
// load meter and counts a TIMER interrupt on core 0 (where the global
// timer lands).
func (m *Machine) StartTicker() {
	if m.ticker.Pending() {
		return
	}
	var tick func()
	tick = func() {
		now := m.E.Now()
		m.IRQ.Inc(0, stats.IRQTimer)
		m.Load.tick(m.Acct, int64(now))
		for _, fn := range m.onTick {
			fn(now)
		}
		m.ticker = m.E.After(m.tickPeriod, tick)
	}
	m.ticker = m.E.After(m.tickPeriod, tick)
}

// StopTicker cancels the periodic tick (so Engine.Run can drain).
func (m *Machine) StopTicker() {
	m.ticker.Stop()
}

// ResetMeasurement starts the CPU ledger's measurement window and
// clears the IRQ counters at the current time — used to discard warm-up
// before a measured window.
func (m *Machine) ResetMeasurement() {
	m.Acct.reset(int64(m.E.Now()))
	m.IRQ.Reset()
}

// workItem is one non-preemptible slice of CPU work.
type workItem struct {
	ctx  stats.CPUContext
	fn   costmodel.Func
	cost sim.Time
	run  func() // invoked when the slice completes; may submit more work
}

// Core is one CPU. Work is executed in strict context priority
// (hardirq > softirq > task) with FIFO order within a context, except
// for the ksoftirqd anti-starvation rule.
type Core struct {
	id   int
	m    *Machine
	hard sim.FIFO[workItem]
	soft sim.FIFO[workItem]
	task sim.FIFO[workItem]
	busy bool

	softStreak int // consecutive softirq items while tasks waited

	// Fault-injection state (internal/faults). A stalled core finishes
	// its in-flight work item but starts nothing new until unstalled —
	// the simulation analogue of a core wedged by a runaway SMI/hypervisor
	// preemption. An offline core behaves the same but is additionally
	// visible to software (CPU-hotplug notification), so balancers can
	// blacklist it immediately rather than inferring sickness from
	// stalled progress.
	stalled bool
	offline bool

	// cur is the in-flight work item, held here (instead of in a per-item
	// closure) so the machine's completion slot for this core needs no
	// allocation per slice. Valid only while busy.
	cur workItem
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Machine returns the owning machine.
func (c *Core) Machine() *Machine { return c.m }

// QueueLen returns the number of pending work items in ctx.
func (c *Core) QueueLen(ctx stats.CPUContext) int {
	switch ctx {
	case stats.CtxHardIRQ:
		return c.hard.Len()
	case stats.CtxSoftIRQ:
		return c.soft.Len()
	case stats.CtxTask:
		return c.task.Len()
	default:
		return 0
	}
}

// Idle reports whether the core has no running or queued work.
func (c *Core) Idle() bool {
	return !c.busy && c.hard.Len() == 0 && c.soft.Len() == 0 && c.task.Len() == 0
}

// SetStalled freezes (true) or resumes (false) the core. While stalled,
// the in-flight work item completes but no queued item starts; queues
// keep accepting work. Progress-based health trackers can detect the
// condition (queued work, no busy-time delta), which is exactly how the
// kernel's soft-lockup watchdog infers a wedged CPU.
func (c *Core) SetStalled(v bool) {
	if c.stalled == v {
		return
	}
	c.stalled = v
	if !v && !c.busy {
		c.dispatch()
	}
}

// Stalled reports whether the core is currently stalled.
func (c *Core) Stalled() bool { return c.stalled }

// SetOffline takes the core out of service (true) or returns it (false)
// — the simulation's CPU hotplug. Execution freezes exactly as in
// SetStalled, but the state is visible via Offline, modelling the
// hotplug notification real kernels broadcast.
func (c *Core) SetOffline(v bool) {
	if c.offline == v {
		return
	}
	c.offline = v
	if !v && !c.busy {
		c.dispatch()
	}
}

// Offline reports whether the core has been hot-unplugged.
func (c *Core) Offline() bool { return c.offline }

// Submit enqueues a work slice of explicit cost. done may be nil.
func (c *Core) Submit(ctx stats.CPUContext, fn costmodel.Func, cost sim.Time, done func()) {
	item := workItem{ctx: ctx, fn: fn, cost: cost, run: done}
	switch ctx {
	case stats.CtxHardIRQ:
		c.hard.Push(item)
	case stats.CtxSoftIRQ:
		c.soft.Push(item)
	case stats.CtxTask:
		c.task.Push(item)
	default:
		panic("cpu: invalid submit context")
	}
	if !c.busy {
		c.dispatch()
	}
}

// Exec submits a slice whose cost is taken from the machine's cost model
// for fn over bytes.
func (c *Core) Exec(ctx stats.CPUContext, fn costmodel.Func, bytes int, done func()) {
	c.Submit(ctx, fn, c.m.Model.Cost(fn, bytes), done)
}

func (c *Core) next() (workItem, bool) {
	if c.hard.Len() > 0 {
		return c.hard.Pop(), true
	}
	// ksoftirqd rule: after a long softirq streak with tasks waiting,
	// let one task slice through.
	if c.task.Len() > 0 && (c.soft.Len() == 0 || c.softStreak >= ksoftirqdBatch) {
		c.softStreak = 0
		return c.task.Pop(), true
	}
	if c.soft.Len() > 0 {
		it := c.soft.Pop()
		if c.task.Len() > 0 {
			c.softStreak++
		} else {
			c.softStreak = 0
		}
		return it, true
	}
	return workItem{}, false
}

// dispatch makes the next queued item the in-flight one and sets the
// core's completion slot for it; a frozen core leaves its queues in place
// (SetStalled and SetOffline re-enter dispatch on resume).
func (c *Core) dispatch() {
	if c.stalled || c.offline {
		c.busy = false
		return
	}
	item, ok := c.next()
	c.busy, c.cur = ok, item
	if ok {
		c.m.slices.Set(c.id, c.m.E.Now()+item.cost)
	}
}

// complete finishes core i's in-flight slice: charge the ledger, run the
// completion, start the next item. It is the callback of the machine's
// slots in the engine's slot group, so the completions of all cores, and
// of every other machine on the engine, share one engine event and run
// inline while each is provably the engine's next.
func (m *Machine) complete(i int) {
	c := m.cores[i]
	item := c.cur
	c.cur = workItem{} // release the completion closure for reuse
	m.Acct.charge(i, item.ctx, item.fn, int64(item.cost), int64(m.E.Now()))
	if item.run != nil {
		item.run()
	}
	c.dispatch()
}
