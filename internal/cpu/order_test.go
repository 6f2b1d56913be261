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
// event of its own, scheduled with AfterArg at dispatch, with no shared
// group and no inline runs. It reuses the cores' queues and priority
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
		c.m.E.AfterArg(item.cost, refComplete, c)
	}
}

func refComplete(v any) {
	c := v.(*Core)
	item := c.cur
	c.cur = workItem{}
	c.m.Acct.Charge(c.id, item.ctx, int64(item.cost), int64(c.m.E.Now()))
	c.m.Prof.Charge(c.id, item.fn, int64(item.cost))
	if item.run != nil {
		item.run()
	}
	refDispatch(c)
}

// runOrderProgram drives two machines on one engine through ops with a
// seeded random program: hardirq bursts at random times, slices of random
// cost, context and function whose completions submit to random cores of
// either machine, ticker callbacks that submit task work, and cores
// stalled or taken offline for random spans. It returns the completion
// trace.
func runOrderProgram(seed uint64, ops coreOps) (*sim.Engine, []*Machine, []completion) {
	e := sim.New(seed)
	r := sim.NewRand(seed)
	ms := []*Machine{
		NewMachine(e, costmodel.Kernel419(), 6, 50*sim.Microsecond),
		NewMachine(e, costmodel.Kernel419(), 3, 70*sim.Microsecond),
	}
	pick := func() (int, *Core) {
		mi := r.Intn(len(ms))
		c := ms[mi].Core(r.Intn(ms[mi].NumCores()))
		return mi*8 + c.ID(), c
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
				id, c := pick()
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
	for mi, m := range ms {
		m.OnTick(func(sim.Time) {
			if r.Intn(3) == 0 {
				slice(mi*8, m.Core(0), stats.CtxTask, 3)
			}
		})
		m.StartTicker()
	}
	e.RunUntil(span + 500*sim.Microsecond)
	for _, m := range ms {
		m.StopTicker()
	}
	e.Run()
	return e, ms, trace
}

// TestMachineOrderMatchesPerCoreEvents: with all cores of a machine
// sharing one completion group, slices complete at the same times, in the
// same order and with the same accounting as with one engine event per
// core, and every slice is exactly one fired or inlined step.
func TestMachineOrderMatchesPerCoreEvents(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		e, ms, got := runOrderProgram(seed, machineOps)
		re, rms, want := runOrderProgram(seed, perCoreOps)
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
			if !reflect.DeepEqual(*m.Acct, *rm.Acct) || !reflect.DeepEqual(*m.Prof, *rm.Prof) ||
				!reflect.DeepEqual(*m.IRQ, *rm.IRQ) || !reflect.DeepEqual(*m.Load, *rm.Load) {
				t.Fatalf("seed %d: machine %d accounting differs from per-core events", seed, i)
			}
		}
		if e.Now() != re.Now() || e.Fired()+e.Inlined() != re.Fired() || e.Inlined() == 0 {
			t.Fatalf("seed %d: now %v fired %d inlined %d; per-core events: now %v fired %d",
				seed, e.Now(), e.Fired(), e.Inlined(), re.Now(), re.Fired())
		}
	}
}
