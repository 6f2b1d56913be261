package sim

import "testing"

// FuzzEngineOrder runs a byte-coded program of At schedules, slot sets
// and clears in two ranges of the engine's group, pushes onto queue
// owners, clock moves (SetClock), event budgets and bounded runs
// (RunUntil, Run) against the engine. A queue owner works as a link
// does: it reserves its one slot on its first push, possibly mid-run,
// stamps each push's key with Engine.Stamp, never pushes a time before
// its last one, and keeps its slot set to its head with SetKey. Every
// executed step's callback may schedule more work, set and clear slots,
// push and stop the run. A reference model treats
// every set slot and every push as one event keyed (at, schedAt, seq)
// with the key stamped at Set or push, and a cleared slot as a cancelled
// one, orders all pending work by that key, and checks that:
//   - every step, heap event or slot run, is the reference's next one, at
//     the engine clock the reference expects;
//   - a heap event moves Fired by one and a slot run never does: a slot
//     run moves Inlined by one, and runs its own range's callback with
//     the slot's index in that range, or its queue's head;
//   - RunUntil leaves nothing due at or before its deadline, NextAt is
//     the next step's time, heap top or first slot, Pending counts the
//     heap's events plus one while any slot is set, IsSet is the
//     reference's slot state, and the budget panics exactly at the first
//     step past it.
func FuzzEngineOrder(f *testing.F) {
	for _, p := range engineOrderSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		m := &orderModel{t: t, e: New(1), prog: prog, deadline: -1}
		m.ranges[0] = m.e.NewSlots(rangeSlots, m.onSlot)
		m.ranges[1] = m.e.NewSlots(groupSlots-rangeSlots, func(i int) { m.onSlot(rangeSlots + i) })
		m.run()
	})
}

// Top-level program ops; each reads the arguments listed.
const (
	opAt       = iota // delay
	opRunUntil        // delay: RunUntil(now+delay)
	opRun             // Run to completion
	opSetClock        // delay: SetClock(now+delay), clamped to the next event
	opSet             // slot, delay: Slots.Set outside any firing
	opBudget          // n: the engine may execute n%32+1 more steps
	opPush            // queue, delay: push onto a queue owner
	opClear           // slot: Slots.Clear outside any firing
	numOps
)

// Callback body ops (after a count byte); 0–3 schedule, 4 stops the
// run, 5 sets a group slot (slot, delay), 6 pushes onto a queue owner
// (queue, delay), 7 clears a group slot (slot).
const (
	cbSchedule   = 0
	cbStopEngine = 4
	cbSet        = 5
	cbPush       = 6
	cbClear      = 7
	numCbOps     = 8
)

// Delay classes (low two bits of the delay's first byte). The boundary
// classes aim at the digit boundaries of the base-256 timing wheel the
// engine once used; they stay as inputs.
const (
	dSmall    = iota // v ns
	dCascade         // next multiple of 2^8, 2^16 or 2^24, ±2 ns
	dShifted         // v << 8, 16 or 24
	dOverflow        // next multiple of 2^32 + v - 128
)

// groupSlots is the fuzzed group's size; a slot byte picks one modulo it.
// The first rangeSlots of them are one range, the rest a second one.
// A queue byte picks one of queueOwners modulo it.
const (
	groupSlots  = 4
	rangeSlots  = 2
	queueOwners = 3
)

// refEvent is the reference model's record of one scheduled event, set
// slot or push.
type refEvent struct {
	at, schedAt Time
	seq         uint64
	slot        bool // a group slot or push, not a heap event
	done        bool // run or cancelled
}

func (a *refEvent) before(b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	return a.seq < b.seq
}

// refQueue is a queue owner: its pushes not yet run, in push order, each
// with the key Engine.Stamp gave it, behind one slot set to the head.
type refQueue struct {
	slot  Slots
	steps []*refEvent
	keys  []Key
	last  Time // the latest push's time: no push may go before it
}

type orderModel struct {
	t      *testing.T
	e      *Engine
	ranges [2]Slots
	prog   []byte
	pos    int

	now      Time
	seq      uint64
	evs      []*refEvent
	slots    [groupSlots]*refEvent
	queues   [queueOwners]*refQueue // nil until the first push
	deadline Time                   // -1 outside runs
	stopped  bool

	fired, inlined uint64 // heap events fired, slots run
	budget         uint64 // 0: none
}

func (m *orderModel) next() byte {
	if m.pos >= len(m.prog) {
		return 0
	}
	b := m.prog[m.pos]
	m.pos++
	return b
}

func (m *orderModel) delay() Time {
	c, v := m.next(), Time(m.next())
	sel := Time(c>>2) % 3
	switch c & 3 {
	case dCascade:
		shift := 8 * (1 + sel)
		d := ((m.now>>shift)+1)<<shift - m.now + v%5 - 2
		return max(d, 0)
	case dShifted:
		return v << (8 * (1 + sel))
	case dOverflow:
		d := ((m.now>>32)+1+sel%2)<<32 - m.now + v - 128
		return max(d, 0)
	}
	return v
}

// nextLive returns the reference's next pending event or slot, or nil.
func (m *orderModel) nextLive() *refEvent {
	var best *refEvent
	for _, ev := range m.evs {
		if !ev.done && (best == nil || ev.before(best)) {
			best = ev
		}
	}
	return best
}

// live is the Pending count the reference expects: heap events, plus one
// while any slot is set.
func (m *orderModel) live() int {
	n, group := 0, 0
	for _, ev := range m.evs {
		switch {
		case ev.done:
		case ev.slot:
			group = 1
		default:
			n++
		}
	}
	return n + group
}

// newStep registers a step at t, scheduled now, in the reference order.
func (m *orderModel) newStep(t Time) int {
	m.evs = append(m.evs, &refEvent{at: t, schedAt: m.now, seq: m.seq})
	m.seq++
	return len(m.evs) - 1
}

func (m *orderModel) schedule(id int) {
	m.e.At(m.evs[id].at, func() { m.onFire(id) })
}

// setSlot sets group slot b%groupSlots at t unless it is already set.
func (m *orderModel) setSlot(b byte, t Time) {
	i := int(b % groupSlots)
	if m.slots[i] != nil {
		return
	}
	ev := m.evs[m.newStep(t)]
	ev.slot = true
	m.slots[i] = ev
	r, j := m.rangeOf(i)
	r.Set(j, t)
}

// clearSlot clears group slot b%groupSlots, cancelling its step if it
// is set.
func (m *orderModel) clearSlot(b byte) {
	i := int(b % groupSlots)
	if ev := m.slots[i]; ev != nil {
		ev.done = true
		m.slots[i] = nil
	}
	r, j := m.rangeOf(i)
	r.Clear(j)
}

// rangeOf returns the range holding group slot i and its index there.
func (m *orderModel) rangeOf(i int) (Slots, int) {
	if i < rangeSlots {
		return m.ranges[0], i
	}
	return m.ranges[1], i - rangeSlots
}

// push queues a step on queue owner b%queueOwners at now+d, or at its
// last push's time if that is later, reserving the owner's slot on its
// first push. The slot is set when the push finds the queue empty.
func (m *orderModel) push(b byte, d Time) {
	q := m.queues[b%queueOwners]
	if q == nil {
		q = &refQueue{}
		q.slot = m.e.NewSlots(1, func(int) { m.onQueue(q) })
		m.queues[b%queueOwners] = q
	}
	q.last = max(q.last, m.now+d)
	ev := m.evs[m.newStep(q.last)]
	ev.slot = true
	k := m.e.Stamp()
	if k != (Key{ev.schedAt, ev.seq}) {
		m.t.Fatalf("Stamp = %+v, reference (%v, %d)", k, ev.schedAt, ev.seq)
	}
	q.steps, q.keys = append(q.steps, ev), append(q.keys, k)
	if len(q.steps) == 1 {
		q.slot.SetKey(0, ev.at, k)
	}
}

// retire checks that ev is the reference's next step, within the run's
// deadline and not after a Stop in the same run, and marks it done.
func (m *orderModel) retire(ev *refEvent) {
	if want := m.nextLive(); want != ev {
		m.t.Fatalf("ran step at %v seq %d, reference next is at %v seq %d",
			ev.at, ev.seq, want.at, want.seq)
	}
	if ev.at > m.deadline {
		m.t.Fatalf("ran step at %v past the run deadline %v", ev.at, m.deadline)
	}
	if m.stopped {
		m.t.Fatalf("ran step at %v after Stop", ev.at)
	}
	ev.done = true
}

// onFire is every heap event's callback: it moves Fired by one and
// Inlined not at all.
func (m *orderModel) onFire(id int) {
	ev := m.evs[id]
	m.retire(ev)
	m.fired++
	m.checkCounts("heap event")
	m.step(ev)
}

// checkCounts compares the engine's Fired and Inlined with the
// reference's after a step of the kind named.
func (m *orderModel) checkCounts(kind string) {
	if f, n := m.e.Fired(), m.e.Inlined(); f != m.fired || n != m.inlined {
		m.t.Fatalf("%s at %v: engine fired %d inlined %d, reference %d and %d",
			kind, m.now, f, n, m.fired, m.inlined)
	}
}

// onSlot is both ranges' callback, with i the slot's index in the group.
func (m *orderModel) onSlot(i int) {
	ev := m.slots[i]
	if ev == nil {
		m.t.Fatalf("group ran empty slot %d", i)
	}
	m.slots[i] = nil
	m.slotRun(ev)
}

// onQueue is a queue owner's slot callback: it pops the head, sets the
// slot to the next one with its stamped key, then runs the popped step.
func (m *orderModel) onQueue(q *refQueue) {
	if len(q.steps) == 0 {
		m.t.Fatalf("group ran an empty queue's slot")
	}
	ev := q.steps[0]
	q.steps, q.keys = q.steps[1:], q.keys[1:]
	if len(q.steps) > 0 {
		q.slot.SetKey(0, q.steps[0].at, q.keys[0])
	}
	m.slotRun(ev)
}

// slotRun checks and runs one slot step: it moves Inlined by one and
// Fired not at all.
func (m *orderModel) slotRun(ev *refEvent) {
	m.retire(ev)
	m.inlined++
	m.checkCounts("slot run")
	m.step(ev)
}

// step runs one executed step's body.
func (m *orderModel) step(ev *refEvent) {
	m.now = ev.at
	if got := m.e.Now(); got != m.now {
		m.t.Fatalf("clock %v at a step due %v", got, m.now)
	}
	for n := m.next() % 4; n > 0; n-- {
		switch op := m.next() % numCbOps; {
		case op < cbStopEngine:
			m.schedule(m.newStep(m.now + m.delay()))
		case op == cbStopEngine:
			m.e.Stop()
			m.stopped = true
		case op == cbSet:
			b := m.next()
			m.setSlot(b, m.now+m.delay())
		case op == cbClear:
			m.clearSlot(m.next())
		default:
			b := m.next()
			m.push(b, m.delay())
		}
	}
}

// runTo runs the engine to deadline. It reports false when the event
// budget stopped the run, which must happen exactly at the first step
// past the budget.
func (m *orderModel) runTo(deadline Time) (ok bool) {
	m.deadline, m.stopped = deadline, false
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, budget := r.(*BudgetExceeded); !budget {
			panic(r)
		}
		if m.fired+m.inlined != m.budget {
			m.t.Fatalf("budget %d panicked after %d steps", m.budget, m.fired+m.inlined)
		}
		ok = false
	}()
	if deadline == maxTime {
		m.e.Run()
	} else {
		m.e.RunUntil(deadline)
	}
	if m.budget > 0 && m.fired+m.inlined > m.budget {
		m.t.Fatalf("%d steps ran under a budget of %d", m.fired+m.inlined, m.budget)
	}
	m.deadline = -1
	if m.stopped {
		return true
	}
	if nx := m.nextLive(); nx != nil && nx.at <= deadline {
		m.t.Fatalf("run to %v left an event at %v pending", deadline, nx.at)
	}
	if deadline != maxTime {
		m.now = max(m.now, deadline)
	}
	return true
}

func (m *orderModel) run() {
	for m.pos < len(m.prog) {
		switch m.next() % numOps {
		case opAt:
			m.schedule(m.newStep(m.now + m.delay()))
		case opRunUntil:
			if !m.runTo(m.now + m.delay()) {
				return
			}
		case opRun:
			if !m.runTo(maxTime) {
				return
			}
		case opSetClock:
			t := m.now + m.delay()
			if nx := m.nextLive(); nx != nil && nx.at < t {
				t = nx.at
			}
			m.e.SetClock(t)
			m.now = max(m.now, t)
		case opSet:
			b := m.next()
			m.setSlot(b, m.now+m.delay())
		case opBudget:
			m.budget = m.fired + m.inlined + uint64(m.next()%32) + 1
			m.e.SetEventBudget(m.budget)
		case opPush:
			b := m.next()
			m.push(b, m.delay())
		case opClear:
			m.clearSlot(m.next())
		}
		m.checkState()
	}
	// The program is spent: no callback stops this run.
	if !m.runTo(maxTime) {
		return
	}
	m.checkState()
	if n := m.live(); n != 0 {
		m.t.Fatalf("%d events never fired", n)
	}
	m.checkCounts("end of program")
}

// checkState compares the engine with the reference between ops.
func (m *orderModel) checkState() {
	if got := m.e.Now(); got != m.now {
		m.t.Fatalf("clock %v, reference %v", got, m.now)
	}
	if got, want := m.e.Pending(), m.live(); got != want {
		m.t.Fatalf("Pending = %d, reference %d", got, want)
	}
	for i, ev := range m.slots {
		if r, j := m.rangeOf(i); r.IsSet(j) != (ev != nil) {
			m.t.Fatalf("slot %d IsSet = %t, reference %t", i, r.IsSet(j), ev != nil)
		}
	}
	nx := m.nextLive()
	at, ok := m.e.NextAt()
	switch {
	case ok != (nx != nil):
		m.t.Fatalf("NextAt reports pending=%t, reference %t", ok, nx != nil)
	case ok && at != nx.at:
		m.t.Fatalf("NextAt = %v, reference next %v", at, nx.at)
	}
}

// engineOrderSeeds is the seed corpus: programs aimed at base-256
// digit boundaries, far-future events, equal-time ties, cancels and clock
// moves around slot runs, and group slots.
func engineOrderSeeds() [][]byte {
	small := func(v byte) []byte { return []byte{dSmall, v} }
	cascade := func(level, off byte) []byte { return []byte{dCascade | (level-1)<<2, off} }
	overflow := func(far, v byte) []byte { return []byte{dOverflow | far<<2, v} }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// body: two scheduled children, at d and at s.
	body := func(d, s []byte) []byte { return cat([]byte{2, cbSchedule}, d, []byte{cbSchedule}, s) }
	// set: a top-level Set of slot byte b at delay d; cbSetOp: the same
	// inside a callback body.
	set := func(b byte, d []byte) []byte { return cat([]byte{opSet, b}, d) }
	cbSetOp := func(b byte, d []byte) []byte { return cat([]byte{cbSet, b}, d) }
	// push, cbPushOp: a push onto queue byte b at delay d, top-level and
	// inside a callback body.
	push := func(b byte, d []byte) []byte { return cat([]byte{opPush, b}, d) }
	cbPushOp := func(b byte, d []byte) []byte { return cat([]byte{cbPush, b}, d) }
	// clear, cbClearOp: a Clear of slot byte b, top-level and inside a
	// callback body.
	clear := func(b byte) []byte { return []byte{opClear, b} }
	cbClearOp := func(b byte) []byte { return []byte{cbClear, b} }
	return [][]byte{
		// Events, and children of theirs, at and around 2^8, 2^16 and
		// 2^24, under a run that ends just past 2^24.
		cat([]byte{opAt}, cascade(1, 2), []byte{opAt}, cascade(2, 1),
			[]byte{opAt}, cascade(3, 3), []byte{opRunUntil}, cascade(3, 4),
			body(cascade(1, 2), small(7)), body(cascade(2, 2), cascade(1, 0)),
			body(small(0), cascade(1, 4)), []byte{opRun}),
		// Events near 2^32 and 2^33, a run to just before 2^32, and
		// children 2^32 ahead.
		cat([]byte{opAt}, overflow(0, 128), []byte{opAt}, overflow(1, 127),
			[]byte{opAt}, small(3), []byte{opRunUntil}, overflow(0, 127),
			body(overflow(0, 200), small(1)), body(small(5), overflow(1, 128)),
			[]byte{opRun}),
		// A step schedules children about 2^32 and 2^33 ahead, and the
		// nearer one two children at its own time.
		cat([]byte{opAt}, small(5), []byte{opRun},
			body(overflow(0, 128), overflow(1, 128)), body(small(0), small(0))),
		// Equal-time ties: the event at 10 sets slot 0 at 20, and the
		// first of two events queued at 20 sets slot 1 at 20. Both events
		// at 20 carry earlier keys, so both fire first; then both slots
		// run in stamp order.
		cat([]byte{opAt}, small(10), []byte{opAt}, small(20), []byte{opAt}, small(20),
			[]byte{opRunUntil}, small(30),
			[]byte{1}, cbSetOp(0, small(10)), []byte{1}, cbSetOp(1, small(0)),
			[]byte{0}, []byte{0}, []byte{0}),
		// A cancel, a callback that clears its own (spent) slot, stops the
		// run and sets a slot, which must then wait for the next run, and
		// clock moves between runs.
		cat(set(0, small(50)), set(1, small(60)), clear(1),
			[]byte{opSetClock}, small(40),
			[]byte{opRunUntil}, small(100), []byte{3}, cbClearOp(0), []byte{cbStopEngine}, cbSetOp(0, small(1)),
			[]byte{opAt}, cascade(1, 2), []byte{opSetClock}, cascade(1, 2), []byte{opRun}),
		// Slot 2 fires and sets slots 3 and then 1 at one time: 3 has the
		// earlier stamp and runs first (catches ties broken against stamp
		// order, such as a lower slot index winning them).
		cat(set(2, small(10)), []byte{opRun},
			[]byte{2}, cbSetOp(3, small(5)), cbSetOp(1, small(5)), []byte{0}, []byte{0}),
		// Slot 0 runs, sets slot 1 and then schedules an event, both at
		// 15: the slot's earlier stamp must win the tie (catches a
		// comparison by time alone that lets the heap's top go first).
		cat(set(0, small(10)), []byte{opRun},
			[]byte{2}, cbSetOp(1, small(5)), []byte{cbSchedule}, small(5), []byte{0}, []byte{0}),
		// An event queued first at exactly the next slot's time: the slot
		// must not run before it (catches a comparison by time alone that
		// lets the slot go first), and runs when it returns.
		cat([]byte{opAt}, small(15), set(0, small(10)), []byte{opRun},
			[]byte{1}, cbSetOp(0, small(5)), []byte{0}, []byte{0}),
		// Slot 0 runs and sets slot 2, in the other range, at 257, with
		// an event pending at 258 and nothing due before it. Slot 2 must
		// run next (catches a comparison against a bound below the next
		// event's time, such as the 256 a timing wheel's level-1 boundary
		// gives).
		cat(set(0, small(10)), []byte{opAt}, cascade(1, 4), []byte{opRun},
			[]byte{1}, cbSetOp(2, small(247))),
		// A top-level Set that goes ahead of the first slot (1 at 10
		// before 0 at 20) and a deadline that holds slot 0 (past 15); a
		// Stop inside slot 0's callback holding slot 2 due at the same
		// time; then a budget of three steps that runs out inside a group
		// run.
		cat(set(0, small(20)), set(1, small(10)), set(2, small(10)), []byte{opRunUntil}, small(15),
			[]byte{0}, []byte{0},
			set(3, small(10)), set(2, small(5)), []byte{opRun}, []byte{1, cbStopEngine},
			[]byte{opRun}, []byte{0}, []byte{0},
			set(0, small(1)), set(1, small(2)), set(2, small(3)), set(3, small(4)),
			[]byte{opBudget, 2}, []byte{opRun}, []byte{0}, []byte{0}, []byte{0}),
		// Two pushes onto queue 0 and then a Set of slot 0, all at 10:
		// when the first push runs, the queue re-sets its slot with the
		// second push's key, stamped before slot 0's, which must still run
		// first (catches linking a slot by its time alone).
		cat(push(0, small(10)), push(0, small(10)), set(0, small(10)), []byte{opRun},
			[]byte{0}, []byte{0}, []byte{0}),
		// Slot 0's callback reserves queue 1 with a push at 15, pushes
		// again (clamped to 15) and sets slot 1 at 15; the queue's first
		// step reserves queue 2 with a push at 15 too. All four run at 15
		// in stamp order while slots are reserved mid-firing.
		cat(set(0, small(10)), []byte{opRun},
			[]byte{3}, cbPushOp(1, small(5)), cbPushOp(1, small(0)), cbSetOp(1, small(5)),
			[]byte{1}, cbPushOp(2, small(0)), []byte{0}, []byte{0}, []byte{0}),
		// An event at 10 sets slot 0 at 15 and schedules an event at 20.
		// When the callback returns the slot is the engine's next step and
		// must run before the event at 20 fires.
		cat([]byte{opAt}, small(10), []byte{opRun},
			[]byte{2}, cbSetOp(0, small(5)), []byte{cbSchedule}, small(10), []byte{0}, []byte{0}),
		// Slots 0–3 set at 10, 20, 30 and 40; clears of the head (0), a
		// middle slot (2), the tail (3) and the now empty 0; then 3, 0 and
		// 2 set again at 5, 25 and 20. They run 3, 1, 2, 0: a cleared slot
		// left linked runs early or twice, and a wrong head or tail after
		// an unlink loses or misorders the slots set after it.
		cat(set(0, small(10)), set(1, small(20)), set(2, small(30)), set(3, small(40)),
			clear(0), clear(2), clear(3), clear(0),
			set(3, small(5)), set(0, small(25)), set(2, small(20)), []byte{opRun},
			[]byte{0}, []byte{0}, []byte{0}, []byte{0}),
		// Slot 0's callback at 10 clears slot 1 (due at 20) and the empty
		// slot 2, then sets slot 1 again at 15, where it runs.
		cat(set(1, small(20)), set(0, small(10)), []byte{opRun},
			[]byte{3}, cbClearOp(1), cbClearOp(2), cbSetOp(1, small(5)), []byte{0}),
	}
}
