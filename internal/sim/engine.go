package sim

import "fmt"

// The scheduler keeps two queues (DESIGN.md §2 "Engine internals"): a
// binary min-heap of engine events, and the slot group, a list of slots
// sorted in the same key order, which carries almost all per-packet work
// and every cancellable timer. The run loop compares the heap's top with
// the first slot and runs the earlier, so the heap stays shallow. A heap
// event cannot be cancelled: an owner that re-arms or cancels a timer
// keeps it in a slot and clears that.

// fireKey is the firing order of events and slots: (at, schedAt, seq).
// schedAt is the clock when the event was scheduled, so ties at the same
// firing time resolve in FIFO scheduling order. For a serial engine
// schedAt is monotone in seq and the pair degenerates to plain seq order
// (a slot set with a key stamped earlier keeps that); a Cluster's
// cross-shard deliveries take slots keyed with the sender's clock as
// schedAt, reproducing the serial engine's schedule-chronology tie-break
// across shard boundaries. It is a total order: seq is unique per
// engine.
type fireKey struct {
	at, schedAt Time
	seq         uint64
}

// less reports whether k fires before o.
func (k *fireKey) less(o *fireKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.schedAt != o.schedAt {
		return k.schedAt < o.schedAt
	}
	return k.seq < o.seq
}

// event is a scheduled callback, fired in fireKey order.
type event struct {
	fireKey
	fn func()
}

// Engine is the discrete-event simulation core.
type Engine struct {
	now     Time
	seq     uint64
	rng     *Rand
	stopped bool
	fired   uint64 // heap events fired
	inlined uint64 // slots run
	budget  uint64 // max events fired plus slots run; 0 = unlimited
	shard   int    // logical-process index when owned by a Cluster
	group   group  // the slots reserved by NewSlots

	heap []event // pending events, a binary min-heap in fireKey order
}

// New returns an engine with its clock at zero, seeded with seed.
func New(seed uint64) *Engine {
	return NewShared(NewRand(seed))
}

// NewShared returns an engine whose root RNG is the caller-supplied
// generator r, shared with other engines. A Cluster builds every
// logical process this way so that construction-time Fork() calls
// consume the single root stream in exactly the order the serial
// engine would — the foundation of shard-count byte-identity.
func NewShared(r *Rand) *Engine {
	e := &Engine{rng: r}
	e.group = group{e: e, head: -1, tail: -1}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetClock advances the clock to t without executing anything. It is
// the Cluster's barrier primitive: parked logical processes are moved to
// the window boundary so relative scheduling (After) from coordinator
// context uses correct absolute times. The caller must guarantee no
// pending event is earlier than t; calling with t <= now is a no-op.
func (e *Engine) SetClock(t Time) {
	if t > e.now {
		e.now = t
	}
}

// NextAt returns the time of the engine's next step, the heap's top or
// the first slot, and whether any is pending.
func (e *Engine) NextAt() (Time, bool) {
	t, ok := maxTime, false
	if len(e.heap) > 0 {
		t, ok = e.heap[0].at, true
	}
	if g := &e.group; g.head >= 0 && g.slots[g.head].at < t {
		t, ok = g.slots[g.head].at, true
	}
	return t, ok
}

// overBudget raises the event-budget panic for fireOne and group.run.
func (e *Engine) overBudget() {
	panic(&BudgetExceeded{Limit: e.budget, Now: e.now})
}

// Shard returns the engine itself: a serial engine is its own (only)
// logical process, so hosts mapped to any shard index share it.
func (e *Engine) Shard(int) *Engine { return e }

// NumShards returns 1: the serial engine is a single logical process.
func (e *Engine) NumShards() int { return 1 }

// Rand returns the engine's root RNG. Components should Fork it.
func (e *Engine) Rand() *Rand { return e.rng }

// Fired returns the number of heap events fired so far (for
// diagnostics): engine timers and control events. Slot runs are counted
// by Inlined instead.
func (e *Engine) Fired() uint64 { return e.fired }

// Inlined returns the number of slots run so far: work that one event
// per firing would have scheduled and fired, run from the slot group
// instead.
func (e *Engine) Inlined() uint64 { return e.inlined }

// BudgetExceeded is the panic value raised when an engine passes its
// event budget — the runaway-simulation backstop behind falconsim's
// -max-events flag. Callers recover it, report the diagnostic, and exit
// nonzero instead of spinning forever.
type BudgetExceeded struct {
	Limit uint64
	Now   Time
}

func (b *BudgetExceeded) Error() string {
	return fmt.Sprintf("sim: event budget exceeded: %d events fired or slots run, sim time %v", b.Limit, b.Now)
}

// SetEventBudget caps the number of steps this engine may execute, heap
// events fired and slots run together; passing the cap panics with
// *BudgetExceeded. 0 removes the cap.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// Pending returns the number of pending heap events, counting
// the slot group as one while any slot is set.
func (e *Engine) Pending() int {
	if e.group.head >= 0 {
		return len(e.heap) + 1
	}
	return len(e.heap)
}

// At schedules fn to run at absolute time t, keyed (t, now, stamp()).
// Scheduling in the past panics: it is always a simulation bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.heap = append(e.heap, event{fireKey{t, e.now, e.stamp()}, fn})
	e.up(len(e.heap) - 1)
}

// stamp draws the next sequence number. With the clock it is the
// tie-break key (schedAt, seq) of an event scheduled now.
func (e *Engine) stamp() uint64 {
	s := e.seq
	e.seq++
	return s
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() { e.run(maxTime) }

// RunUntil executes events with at <= deadline, then sets the clock to
// deadline. Events scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline Time) {
	e.run(deadline)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// run is the two-queue loop: it runs the slot group while its first slot
// comes before the heap's top, and otherwise fires the top.
func (e *Engine) run(deadline Time) {
	e.stopped = false
	for {
		e.group.run(deadline)
		if e.stopped || len(e.heap) == 0 || e.heap[0].at > deadline {
			return
		}
		e.fireOne()
	}
}

// fireOne pops the earliest event and runs it.
func (e *Engine) fireOne() {
	h := e.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the popped callback's reference
	e.heap = h[:n]
	if n > 0 {
		e.down(0)
	}
	e.now = ev.at
	e.fired++
	if e.budget > 0 && e.fired+e.inlined > e.budget {
		e.overBudget()
	}
	ev.fn()
}

func (e *Engine) up(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.less(&h[p].fireKey) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (e *Engine) down(i int) {
	h := e.heap
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(&h[c].fireKey) {
			c = r
		}
		if !h[c].less(&ev.fireKey) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}
