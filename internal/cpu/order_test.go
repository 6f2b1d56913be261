package cpu

import (
	"reflect"
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// completion is one finished slice: when, on which core (machine*8 +
// core), and what ran.
type completion struct {
	at   sim.Time
	core int
	fn   costmodel.Func
	ctx  stats.CPUContext
}

// coreOps is how the test program reaches a core: the Machine's own
// methods, or the per-core-event reference.
type coreOps struct {
	submit func(c *Core, ctx stats.CPUContext, fn costmodel.Func, cost sim.Time, done func())
	freeze func(c *Core, offline, v bool)
}

var machineOps = coreOps{
	submit: (*Core).Submit,
	freeze: func(c *Core, offline, v bool) {
		if offline {
			c.SetOffline(v)
		} else {
			c.SetStalled(v)
		}
	},
}

// perCoreOps is the reference: every core's slice completes on an engine
// event of its own, scheduled with After at dispatch, with no shared
// group and no slot runs. It reuses the cores' queues and priority
// rules, so the two can differ only in the order completions run in.
var perCoreOps = coreOps{
	submit: func(c *Core, ctx stats.CPUContext, fn costmodel.Func, cost sim.Time, done func()) {
		idle := !c.busy
		c.busy = true // Submit only queues on a busy core
		c.Submit(ctx, fn, cost, done)
		if idle {
			refDispatch(c)
		}
	},
	freeze: func(c *Core, offline, v bool) {
		p := &c.stalled
		if offline {
			p = &c.offline
		}
		if *p == v {
			return
		}
		*p = v
		if !v && !c.busy {
			refDispatch(c)
		}
	},
}

func refDispatch(c *Core) {
	if c.stalled || c.offline {
		c.busy = false
		return
	}
	item, ok := c.next()
	c.busy, c.cur = ok, item
	if ok {
		c.m.E.After(item.cost, func() { refComplete(c) })
	}
}

func refComplete(c *Core) {
	item := c.cur
	c.cur = workItem{}
	c.m.Acct.charge(c.id, item.ctx, item.fn, int64(item.cost), int64(c.m.E.Now()))
	if item.run != nil {
		item.run()
	}
	refDispatch(c)
}

// orderProgram shapes a runOrderProgram run: the machines' core counts,
// and whether a completion hands off only to cores of other machines.
type orderProgram struct {
	cores []int
	cross bool
}

// runOrderProgram drives machines on one engine through ops with a seeded
// random program: hardirq bursts at random times, slices of random cost,
// context and function whose completions submit to random cores (of any
// machine, or with cross of any other machine), periodic timers
// (machine i's every 50+20i µs) that submit task work beside the
// machines' own tickers, and cores stalled or taken offline for random
// spans.
// It returns the completion trace.
func runOrderProgram(seed uint64, p orderProgram, ops coreOps) (*sim.Engine, []*Machine, []completion) {
	e := sim.New(seed)
	r := sim.NewRand(seed)
	ms := make([]*Machine, len(p.cores))
	for i, n := range p.cores {
		ms[i] = NewMachine(e, costmodel.Kernel419(), n)
	}
	pickOn := func(mi int) (int, *Core) {
		c := ms[mi].Core(r.Intn(ms[mi].NumCores()))
		return mi*8 + c.ID(), c
	}
	pick := func() (int, *Core) { return pickOn(r.Intn(len(ms))) }
	pickAfter := func(from int) (int, *Core) {
		if !p.cross {
			return pick()
		}
		return pickOn((from/8 + 1 + r.Intn(len(ms)-1)) % len(ms))
	}
	costs := []sim.Time{0, 40, 40, 100, 100, 250, 1000}
	ctxs := []stats.CPUContext{stats.CtxHardIRQ, stats.CtxSoftIRQ, stats.CtxSoftIRQ, stats.CtxTask}
	var trace []completion
	var slice func(id int, c *Core, ctx stats.CPUContext, depth int)
	slice = func(id int, c *Core, ctx stats.CPUContext, depth int) {
		fn := costmodel.Func(r.Intn(int(costmodel.NumFuncs)))
		cost := costs[r.Intn(len(costs))] + sim.Time(r.Intn(2))
		ops.submit(c, ctx, fn, cost, func() {
			trace = append(trace, completion{e.Now(), id, fn, ctx})
			for k := r.Intn(3); k > 0 && depth < 5; k-- {
				id, c := pickAfter(id)
				slice(id, c, ctxs[r.Intn(len(ctxs))], depth+1)
			}
		})
	}
	const span = 2 * sim.Millisecond
	for i := 0; i < 300; i++ {
		e.At(sim.Time(r.Intn(int(span))), func() {
			id, c := pick()
			for k := 1 + r.Intn(4); k > 0; k-- {
				slice(id, c, stats.CtxHardIRQ, 0)
			}
		})
	}
	for i := 0; i < 20; i++ {
		_, c := pick()
		offline := r.Intn(2) == 0
		at := sim.Time(r.Intn(int(span)))
		e.At(at, func() { ops.freeze(c, offline, true) })
		e.At(at+sim.Time(r.Intn(200_000)), func() { ops.freeze(c, offline, false) })
	}
	const end = span + 500*sim.Microsecond
	for mi, m := range ms {
		period := sim.Time(50+20*mi) * sim.Microsecond
		var tick func()
		tick = func() {
			if r.Intn(3) == 0 {
				slice(mi*8, m.Core(0), stats.CtxTask, 3)
			}
			if e.Now()+period <= end {
				e.After(period, tick)
			}
		}
		e.After(period, tick)
		m.StartTicker()
	}
	e.RunUntil(end)
	for _, m := range ms {
		m.StopTicker()
	}
	e.Run()
	return e, ms, trace
}

// checkOrderMatchesPerCoreEvents runs p under seeds 1–20 with the
// machines' shared slot group and with one engine event per core, and
// requires the same completions, at the same times, in the same order,
// with the same accounting, and every slice to be exactly one slot run.
func checkOrderMatchesPerCoreEvents(t *testing.T, p orderProgram) {
	t.Helper()
	for seed := uint64(1); seed <= 20; seed++ {
		e, ms, got := runOrderProgram(seed, p, machineOps)
		re, rms, want := runOrderProgram(seed, p, perCoreOps)
		if len(want) < 1000 {
			t.Fatalf("seed %d: only %d completions; the program is too small", seed, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: completion %d is %+v, per-core events give %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d completions, per-core events give %d", seed, len(got), len(want))
		}
		for i, m := range ms {
			rm := rms[i]
			if !reflect.DeepEqual(*m.Acct, *rm.Acct) || !reflect.DeepEqual(*m.IRQ, *rm.IRQ) ||
				!reflect.DeepEqual(*m.Load, *rm.Load) {
				t.Fatalf("seed %d: machine %d accounting differs from per-core events", seed, i)
			}
		}
		// The reference's ticks are slot runs too: only its slices fire.
		if e.Now() != re.Now() || e.Fired()+e.Inlined() != re.Fired()+re.Inlined() || e.Inlined() == 0 {
			t.Fatalf("seed %d: now %v fired %d inlined %d; per-core events: now %v fired %d inlined %d",
				seed, e.Now(), e.Fired(), e.Inlined(), re.Now(), re.Fired(), re.Inlined())
		}
	}
}

// TestMachineOrderMatchesPerCoreEvents: with the cores of two machines
// sharing their engine's slot group, slices complete at the same times,
// in the same order and with the same accounting as with one engine
// event per core.
func TestMachineOrderMatchesPerCoreEvents(t *testing.T) {
	checkOrderMatchesPerCoreEvents(t, orderProgram{cores: []int{6, 3}})
}

// TestCrossMachineOrderMatchesPerCoreEvents: the same with three
// machines whose every completion hands off to another machine, as a
// client's transmit hands off to the server's receive, so slot runs
// interleave across machines throughout.
func TestCrossMachineOrderMatchesPerCoreEvents(t *testing.T) {
	checkOrderMatchesPerCoreEvents(t, orderProgram{cores: []int{4, 2, 3}, cross: true})
}

// TestMachinesAlternateInline: a chain of slices alternating between two
// machines (A, B, A, B, ...) on an otherwise idle engine is always the
// engine's next work, so every slice runs from the slot group and no
// heap event fires: the machines share one group, and a hand-off between
// them needs no engine event.
func TestMachinesAlternateInline(t *testing.T) {
	e := sim.New(1)
	ms := []*Machine{
		NewMachine(e, costmodel.Kernel419(), 2),
		NewMachine(e, costmodel.Kernel419(), 2),
	}
	const slices = 100
	var done []sim.Time
	var next func()
	next = func() {
		done = append(done, e.Now())
		if len(done) < slices {
			ms[len(done)%2].Core(1).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, next)
		}
	}
	ms[0].Core(1).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, next)
	e.Run()
	if len(done) != slices || done[slices-1] != slices*100 {
		t.Fatalf("%d slices, the last at %v; want %d, the last at %v", len(done), done[len(done)-1], slices, sim.Time(slices*100))
	}
	if e.Fired() != 0 || e.Inlined() != slices {
		t.Fatalf("fired %d, inlined %d; want 0 and %d", e.Fired(), e.Inlined(), slices)
	}
	for i, m := range ms {
		if got := m.Acct.Busy(1, stats.CtxSoftIRQ); got != slices/2*100 {
			t.Fatalf("machine %d charged %d, want %d", i, got, slices/2*100)
		}
	}
}
