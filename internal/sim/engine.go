package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// The scheduler is a hierarchical timing wheel in front of an overflow
// heap (DESIGN.md §2 "Engine internals"). Nearly all events in the
// simulation are scheduled a short delay ahead (per-function CPU costs,
// interrupt moderation windows, timer ticks), so they land in the wheel
// and cost O(1) to schedule, cancel and fire; events beyond the wheel
// horizon (~4.3 s) park in a binary heap and fire directly from it.
//
// Events are pooled on a free list and recycled immediately after they
// fire or are cancelled. A Timer handle therefore carries a generation
// stamp: Stop on a handle whose event has been recycled (and possibly
// rescheduled for an unrelated purpose) is a safe no-op.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// wheelHorizon is the first delta that no longer fits the wheel.
	wheelHorizon = uint64(1) << (wheelBits * wheelLevels)
)

// event is a scheduled callback. Events fire in (at, schedAt, seq)
// order: schedAt is the clock when the event was scheduled, so ties at
// the same firing time resolve in FIFO scheduling order. For a serial
// engine schedAt is monotone in seq and the pair degenerates to plain
// seq order (the slot group re-arms with a key stamped earlier, which
// keeps that); a Cluster draining cross-shard messages inserts them with
// the sender's clock as schedAt, reproducing the serial engine's
// schedule-chronology tie-break across shard boundaries.
type event struct {
	at      Time
	schedAt Time
	seq     uint64
	gen     uint64 // bumped on every recycle; stale Timer handles mismatch
	eng     *Engine

	// Exactly one of fn / afn is set while live. afn avoids a closure
	// allocation on hot paths: the argument rides in arg.
	fn  func()
	afn func(any)
	arg any

	// Intrusive doubly-linked list node while in a wheel bucket or the
	// due list (in != nil), or heap index while in the overflow heap
	// (heapIdx >= 0, in == nil). Free events link through next.
	next, prev *event
	in         *bucket
	heapIdx    int32
	dead       bool // cancelled while in the heap (lazily removed)
}

func (ev *event) live() bool { return !ev.dead && (ev.fn != nil || ev.afn != nil) }

// bucket is one seq-ordered event list: a wheel slot or the due list.
type bucket struct {
	head, tail *event
	level      int8 // wheel level, or -1 for the due list
	slot       int16
}

// firesBefore orders events with equal firing times: by schedule time,
// then by sequence number.
func (ev *event) firesBefore(o *event) bool {
	if ev.schedAt != o.schedAt {
		return ev.schedAt < o.schedAt
	}
	return ev.seq < o.seq
}

// insert places ev keeping the bucket sorted by (schedAt, seq).
// Schedule-time inserts always hit the O(1) tail fast path (both keys
// are monotonic); cascades, heap merges, cross-shard drains and group
// re-arms (an earlier stamp) may walk backward, which is rare.
func (b *bucket) insert(ev *event) {
	ev.in = b
	if b.tail == nil {
		ev.prev, ev.next = nil, nil
		b.head, b.tail = ev, ev
		return
	}
	p := b.tail
	for p != nil && ev.firesBefore(p) {
		p = p.prev
	}
	if p == nil { // new head
		ev.prev, ev.next = nil, b.head
		b.head.prev = ev
		b.head = ev
		return
	}
	ev.prev, ev.next = p, p.next
	if p.next != nil {
		p.next.prev = ev
	} else {
		b.tail = ev
	}
	p.next = ev
}

// unlink removes ev from the bucket. O(1).
func (b *bucket) unlink(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	ev.next, ev.prev, ev.in = nil, nil, nil
}

// Timer is a generation-stamped handle to a scheduled event. The zero
// Timer is valid and inert. Handles stay safe after their event fires:
// the pooled event's generation is bumped on recycle, so Stop and
// Pending on a stale handle are no-ops.
type Timer struct {
	ev  *event
	gen uint64
}

// Pending reports whether the timer is scheduled and not yet fired or
// stopped.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.live()
}

// Stop cancels the timer. It reports whether the callback was prevented
// from running (false when it already fired, was already stopped, or the
// handle is stale).
func (t *Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || !ev.live() {
		return false
	}
	ev.eng.cancel(ev)
	return true
}

// Engine is the discrete-event simulation core.
type Engine struct {
	now      Time
	cur      uint64 // wheel cursor; now >= Time(cur) always
	seq      uint64
	live     int // scheduled, uncancelled events (all structures)
	rng      *Rand
	stopped  bool
	deadline Time // current run's deadline; -1 outside Run/RunUntil
	fired    uint64
	inlined  uint64 // work run ahead by inline instead of fired
	budget   uint64 // max events to fire or inline; 0 = unlimited
	shard    int    // logical-process index when owned by a Cluster
	group    *group // the slots reserved by NewSlots; nil before the first

	due bucket // events at exactly cur, ready to fire, seq-ordered

	levels     [wheelLevels][wheelSlots]bucket
	occ        [wheelLevels][wheelSlots / 64]uint64
	levelCount [wheelLevels]int

	heap     []*event // overflow: at - cur >= wheelHorizon when added
	heapDead int      // cancelled events still in heap (lazily compacted)

	// nextHint is always a lower bound on the next cursor boundary: the
	// firing time, or the cascade boundary on the way to it, of every
	// pending event outside the due list (math.MaxUint64 when there is
	// none). advance() rescans it once after collecting each slot and
	// jumps straight to it on the next call; schedule() min-updates it.
	// The bound is one-sided — a cancel may leave it stale-low, never
	// stale-high — so NextAt is a single compare, inline is one on its
	// fast path, and a stale-low hint costs at most one empty cursor jump.
	nextHint uint64

	free *event // recycled event free list, linked via next
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
	e := &Engine{rng: r, nextHint: math.MaxUint64, deadline: -1}
	e.due.level = -1
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetClock advances the clock to t without executing anything. The
// wheel cursor is untouched (advance already tolerates a cursor behind
// the clock). It is the Cluster's barrier primitive: parked logical
// processes are moved to the window boundary so relative scheduling
// (After) from coordinator context uses correct absolute times. The
// caller must guarantee no pending event is earlier than t; calling
// with t <= now is a no-op.
func (e *Engine) SetClock(t Time) {
	if t > e.now {
		e.now = t
	}
}

// NextAt returns a lower bound on the firing time of the engine's next
// event, and whether any event is pending. It reads the cached hint, so
// it is O(1): the bound is exact right after a cursor move, by the run
// loop or by inline, when the next event sits in wheel level 0 or the
// overflow heap; for events parked in upper wheel levels it may be the
// next cascade boundary instead, and a cancel may leave it stale-low (a
// time before the event, never after it).
// Underestimation is safe for window-based synchronization: the window
// merely shrinks to the bound and the next iteration makes strict
// progress.
func (e *Engine) NextAt() (Time, bool) {
	if e.live == 0 {
		return 0, false
	}
	if e.due.head != nil { // only after Stop mid-run
		return e.now, true
	}
	t := Time(e.nextHint)
	if t < e.now {
		t = e.now
	}
	return t, true
}

// runAhead lets the callback of the event being fired run a successor
// inline: it reports whether an event at t would be the engine's next
// event to fire within the current run, whatever its tie-break key, and,
// if so, advances the clock to t as firing it would. The caller then
// performs that event's work directly, with no schedule and no fire.
//
// It is exact, not a heuristic. No set group slot may be due at or
// before t: inside a run the group arms its event only when the fired
// event returns (settle), so a slot set earlier in this callback is not
// yet on the wheel, and the slot must run first whatever its key. The
// rest is inline's check against every pending engine event.
func (e *Engine) runAhead(t Time) bool {
	if g := e.group; g != nil && g.head >= 0 && t >= g.slots[g.head].at {
		return false
	}
	return e.inline(t)
}

// inline is runAhead without the group's slots: the group asks it for
// its own first slot. The due list must be empty, t must not pass the
// current Run/RunUntil deadline, and the run must not have been stopped.
// When t lies strictly below nextHint (a lower bound on every pending
// event outside the due list) that is enough. Otherwise the hint may be
// stale-low or a cascade boundary, so inline moves the wheel cursor
// toward t exactly as the run loop's advance would, cascading upper
// levels, and succeeds only if nothing falls due at or before t. An
// equal-time pending event may fire first, depending on the keys, so it
// refuses. Outside a run, and for t before now, it reports false.
// Inlined work counts towards the event budget and is reported by
// Inlined.
//
// A refusal may have moved the cursor, and the clock with it, to the
// time of the event that fell due, which is never past t. The caller
// must therefore schedule nothing after a refusal except with a key
// stamped before it: the group arms with the slot's stamped key.
func (e *Engine) inline(t Time) bool {
	if t > e.deadline || t < e.now || e.due.head != nil || e.stopped ||
		uint64(t) >= e.nextHint && e.advance(uint64(t)) {
		return false
	}
	e.inlined++
	if e.budget > 0 && e.fired+e.inlined > e.budget {
		e.overBudget()
	}
	e.now = t
	return true
}

// overBudget raises the event-budget panic for fireOne and inline.
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

// Fired returns the number of events fired from the queue so far (for
// diagnostics). Work run ahead inline is counted by Inlined instead.
func (e *Engine) Fired() uint64 { return e.fired }

// Inlined returns the number of inline steps taken so far: events that
// would have been scheduled and fired next, executed inline instead.
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
	return fmt.Sprintf("sim: event budget exceeded: %d events fired or inlined, sim time %v", b.Limit, b.Now)
}

// SetEventBudget caps the number of events this engine may execute,
// fired and inlined together; passing the cap panics with
// *BudgetExceeded. 0 removes the cap.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// Pending returns the number of scheduled, uncancelled events. O(1):
// a live counter is maintained on schedule, cancel and fire.
func (e *Engine) Pending() int { return e.live }

func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		ev = &event{eng: e, heapIdx: -1}
		return ev
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// recycle returns a dead, unlinked event to the pool, invalidating all
// outstanding Timer handles to it.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	ev.in, ev.prev = nil, nil
	ev.heapIdx = -1
	ev.dead = false
	ev.next = e.free
	e.free = ev
}

// schedule places a freshly allocated event into the due list, wheel or
// overflow heap according to its delay.
func (e *Engine) schedule(ev *event) {
	e.live++
	x := uint64(ev.at) ^ e.cur
	if x == 0 {
		// Due events are outside the hint: they fire before any cursor
		// move, and inline checks the due list directly.
		e.due.insert(ev)
		return
	}
	// Place by the highest digit in which the event time differs from the
	// cursor: its slot at that level is strictly ahead of the cursor, and
	// the cascade at each window boundary re-places it one level down
	// until it reaches the due list at exactly its firing time.
	l := (bits.Len64(x) - 1) / wheelBits
	if l >= wheelLevels {
		if uint64(ev.at) < e.nextHint {
			e.nextHint = uint64(ev.at)
		}
		e.heapPush(ev)
		return
	}
	// The new event's scan candidate at level l is its firing time with
	// the sub-level digits cleared: min-merging it keeps the hint a lower
	// bound.
	if f := uint64(ev.at) &^ (uint64(1)<<(wheelBits*l) - 1); f < e.nextHint {
		e.nextHint = f
	}
	slot := int(uint64(ev.at)>>(wheelBits*l)) & wheelMask
	b := &e.levels[l][slot]
	if b.head == nil {
		b.level, b.slot = int8(l), int16(slot)
		e.occ[l][slot>>6] |= 1 << (slot & 63)
	}
	b.insert(ev)
	e.levelCount[l]++
}

// cancel removes a live event: O(1) unlink for wheel/due events, lazy
// mark-dead for heap events (compacted when the dead fraction passes
// one half, so long runs with heavy timer churn don't grow the heap
// unboundedly).
func (e *Engine) cancel(ev *event) {
	e.live--
	if ev.in != nil {
		b := ev.in
		b.unlink(ev)
		if b.level >= 0 {
			e.levelCount[b.level]--
			if b.head == nil {
				e.occ[b.level][b.slot>>6] &^= 1 << (b.slot & 63)
			}
		}
		e.recycle(ev)
		return
	}
	// In the overflow heap: mark dead, remove lazily.
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	ev.dead = true
	e.heapDead++
	if e.heapDead >= 64 && e.heapDead*2 > len(e.heap) {
		e.compactHeap()
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it is always a simulation bug.
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.schedAt, ev.seq, ev.fn = t, e.now, e.stamp(), fn
	e.schedule(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// AtArg schedules fn(arg) at absolute time t. Unlike At it needs no
// closure: hot paths pass a package-level function and carry their state
// in arg, making the schedule allocation-free.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Timer {
	return e.atStamped(t, e.now, e.stamp(), fn, arg)
}

// stamp draws the next sequence number. With the clock it is the
// tie-break key (schedAt, seq) of an event scheduled now.
func (e *Engine) stamp() uint64 {
	s := e.seq
	e.seq++
	return s
}

// atStamped schedules fn(arg) at absolute time t with an explicit
// tie-break key. The slot group arms its event with a key stamped when
// the slot was set. The Cluster's barrier drain passes the sending
// shard's clock as schedAt, so a cross-shard delivery interleaves with
// the destination's same-nanosecond events exactly as it would have on a
// single serial engine.
func (e *Engine) atStamped(t, schedAt Time, seq uint64, fn func(any), arg any) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.schedAt, ev.seq, ev.afn, ev.arg = t, schedAt, seq, fn, arg
	e.schedule(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AfterArg schedules fn(arg) d nanoseconds from now, without a closure.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now+d, fn, arg)
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

func (e *Engine) run(deadline Time) {
	e.stopped = false
	e.deadline = deadline
	for e.live > 0 && !e.stopped {
		if e.due.head == nil {
			if !e.advance(uint64(deadline)) {
				break
			}
			continue
		}
		e.fireOne()
	}
	e.deadline = -1
}

// fireOne pops the head of the due list and runs it. The event is
// recycled before the callback executes, so callbacks can schedule new
// work that reuses it, and stale Stop calls are already no-ops. After
// any event but the group's own, the group settles: its first slot runs
// inline if it is now the engine's next event, or is armed.
func (e *Engine) fireOne() {
	ev := e.due.head
	e.due.unlink(ev)
	if ev.at > e.now {
		e.now = ev.at
	}
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	own := e.group != nil && e.group.armed == Timer{ev, ev.gen}
	e.recycle(ev)
	e.live--
	e.fired++
	if e.budget > 0 && e.fired+e.inlined > e.budget {
		e.overBudget()
	}
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	if g := e.group; g != nil && g.head >= 0 && !own {
		g.settle()
	}
}

// nextOccupied returns the circular distance (1..255) from slot `from`
// to the next occupied slot in bm, or 0 when the level is empty. The
// caller guarantees slot `from` itself holds no pending events.
func nextOccupied(bm *[wheelSlots / 64]uint64, from int) int {
	for step := 1; step <= wheelMask; {
		idx := (from + step) & wheelMask
		rem := bm[idx>>6] >> (idx & 63)
		if rem != 0 {
			d := step + bits.TrailingZeros64(rem)
			if d > wheelMask {
				return 0
			}
			return d
		}
		step += 64 - (idx & 63)
	}
	return 0
}

// advance jumps the wheel cursor to the next event time (or cascade
// boundary on the way to it) at or before deadline, filling the due
// list. It reports false when nothing fires at or before the deadline.
// The jump target is the hint; a stale-low one costs an empty jump.
func (e *Engine) advance(deadline uint64) bool {
	for e.due.head == nil {
		m := e.nextHint
		if m > deadline {
			return false
		}
		e.cur = m
		if t := Time(m); t > e.now {
			e.now = t
		}
		// Cascade every level whose window boundary we just landed on,
		// highest first so freshly cascaded events redistribute in turn.
		for l := wheelLevels - 1; l >= 1; l-- {
			shift := uint(wheelBits * l)
			if e.cur&((1<<shift)-1) == 0 {
				e.cascade(l, int((e.cur>>shift)&wheelMask))
			}
		}
		// Collect the level-0 slot: every event in it is due exactly now.
		slot := int(e.cur & wheelMask)
		if b := &e.levels[0][slot]; b.head != nil {
			for ev := b.head; ev != nil; {
				next := ev.next
				ev.next, ev.prev, ev.in = nil, nil, nil
				e.levelCount[0]--
				e.due.insert(ev)
				ev = next
			}
			b.head, b.tail = nil, nil
			e.occ[0][slot>>6] &^= 1 << (slot & 63)
		}
		// Merge overflow-heap events due exactly now.
		for len(e.heap) > 0 && uint64(e.heap[0].at) == e.cur {
			ev := e.heapPop()
			if ev.dead {
				e.heapDead--
				e.recycle(ev)
				continue
			}
			e.due.insert(ev)
		}
		e.nextHint = e.scan()
	}
	return true
}

// scan returns the next cursor boundary past the cursor: the earliest
// occupied level-0 slot, upper-level cascade boundary or live heap
// event, or math.MaxUint64 when nothing is pending outside the due list.
func (e *Engine) scan() uint64 {
	m := uint64(math.MaxUint64)
	if e.levelCount[0] > 0 {
		if d := nextOccupied(&e.occ[0], int(e.cur&wheelMask)); d > 0 {
			m = e.cur + uint64(d)
		}
	}
	for l := 1; l < wheelLevels; l++ {
		if e.levelCount[l] == 0 {
			continue
		}
		shift := uint(wheelBits * l)
		if d := nextOccupied(&e.occ[l], int((e.cur>>shift)&wheelMask)); d > 0 {
			if b := ((e.cur >> shift) + uint64(d)) << shift; b < m {
				m = b
			}
		}
	}
	if hm, ok := e.heapMin(); ok && hm < m {
		m = hm
	}
	return m
}

// cascade redistributes one upper-level slot into the levels below (or
// the due list, for events landing exactly on the boundary).
func (e *Engine) cascade(l, slot int) {
	b := &e.levels[l][slot]
	if b.head == nil {
		return
	}
	e.occ[l][slot>>6] &^= 1 << (slot & 63)
	ev := b.head
	b.head, b.tail = nil, nil
	for ev != nil {
		next := ev.next
		ev.next, ev.prev, ev.in = nil, nil, nil
		e.levelCount[l]--
		e.live-- // schedule re-increments
		e.schedule(ev)
		ev = next
	}
}

// Overflow heap: a plain binary min-heap on (at, schedAt, seq).

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.firesBefore(b)
}

func (e *Engine) heapPush(ev *event) {
	ev.heapIdx = int32(len(e.heap))
	e.heap = append(e.heap, ev)
	e.heapUp(len(e.heap) - 1)
}

func (e *Engine) heapPop() *event {
	ev := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[0].heapIdx = 0
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if n > 0 {
		e.heapDown(0)
	}
	ev.heapIdx = -1
	return ev
}

func (e *Engine) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heapSwap(i, p)
		i = p
	}
}

func (e *Engine) heapDown(i int) {
	n := len(e.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && eventLess(e.heap[r], e.heap[c]) {
			c = r
		}
		if !eventLess(e.heap[c], e.heap[i]) {
			return
		}
		e.heapSwap(i, c)
		i = c
	}
}

func (e *Engine) heapSwap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.heap[i].heapIdx = int32(i)
	e.heap[j].heapIdx = int32(j)
}

// heapMin returns the earliest live heap event's time, lazily discarding
// cancelled events off the top.
func (e *Engine) heapMin() (uint64, bool) {
	for len(e.heap) > 0 {
		if ev := e.heap[0]; ev.dead {
			e.heapPop()
			e.heapDead--
			e.recycle(ev)
			continue
		}
		return uint64(e.heap[0].at), true
	}
	return 0, false
}

// compactHeap rebuilds the heap without its dead entries — called when
// more than half the heap is cancelled timers, so heavy Stop churn
// (e.g. per-segment TCP retransmit timers) cannot grow it unboundedly.
func (e *Engine) compactHeap() {
	alive := e.heap[:0]
	for _, ev := range e.heap {
		if ev.dead {
			e.recycle(ev)
			continue
		}
		alive = append(alive, ev)
	}
	for i := len(alive); i < len(e.heap); i++ {
		e.heap[i] = nil
	}
	e.heap = alive
	e.heapDead = 0
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.heapDown(i)
	}
	for i, ev := range e.heap {
		ev.heapIdx = int32(i)
	}
}
