package sim

import "slices"

// group holds every slot of an engine: the engine's second queue, next
// to its heap. A slot holds at most one pending firing of its owner's
// callback, keyed exactly as an At schedule would be: (at, schedAt,
// seq), and Clear cancels it; a slot is the engine's only cancellable
// timer. Set stamps the tie-break half from the engine then; SetKey
// takes one stamped earlier with Engine.Stamp, so an owner with several
// firings pending in FIFO order (a link with frames on the wire) keeps
// one slot set to its head under the key the head's own event would
// have had. Set slots are linked in key order, and the engine's run loop
// compares the first with the heap's top by the whole key and runs the
// earlier: the group runs its first slot, then each next first slot for
// as long as it still comes before the heap's top and within the run's
// deadline. No slot ever enters the heap, so slot callbacks run in
// precisely the order one event per firing would give them (DESIGN.md
// §2), and a slot run costs a list unlink instead of a heap push and
// pop.
//
// Owners reserve ranges of slots with Engine.NewSlots, at construction or
// mid-run. Since one group serves the whole engine, a hand-off from one
// owner to another (a frame's arrival raising the receiving NIC's
// interrupt, a client machine's slice completing just before the
// server's) runs in the same loop too.
type group struct {
	e *Engine

	slots      []slot
	head, tail int // the set slots, linked in key order; -1 when none
}

// slot is one pending firing: its key, its neighbours in key order, and
// the owner callback it runs with its index in the owner's range.
type slot struct {
	fireKey
	prev, next int
	set        bool

	fn    func(slot int)
	local int
}

// Slots is a range of slots in its engine's group, reserved by NewSlots.
type Slots struct {
	g       *group
	base, n int
}

// NewSlots reserves n empty slots in the engine's group whose firings
// run fn(i), i being the slot's index in the range.
func (e *Engine) NewSlots(n int, fn func(slot int)) Slots {
	g := &e.group
	base := len(g.slots)
	g.slots = slices.Grow(g.slots, n)
	for i := 0; i < n; i++ {
		g.slots = append(g.slots, slot{fn: fn, local: i})
	}
	return Slots{g: g, base: base, n: n}
}

// Key is the tie-break half of an event's firing key: the clock when the
// event was scheduled and a sequence number drawn from the engine then.
type Key struct {
	schedAt Time
	seq     uint64
}

// Stamp draws the tie-break key an event scheduled now would get. An
// owner queueing firings behind one slot stamps each when it is queued
// and sets the slot with SetKey when that firing reaches the head.
func (e *Engine) Stamp() Key { return Key{e.now, e.stamp()} }

// Set schedules slot i of the range to fire at t, stamping its tie-break
// key now. The slot must be empty; setting a time before now panics, as
// At does.
func (r Slots) Set(i int, t Time) { r.SetKey(i, t, r.g.e.Stamp()) }

// SetKey schedules slot i of the range to fire at t under key k, stamped
// by Engine.Stamp on the same engine, now or earlier. The slot fires
// where an event scheduled when k was stamped would have fired.
func (r Slots) SetKey(i int, t Time, k Key) { r.g.set(r.index(i), t, k) }

// Clear empties slot i of the range: a set slot is unlinked and does not
// run, and an empty one stays empty.
func (r Slots) Clear(i int) {
	if s := &r.g.slots[r.index(i)]; s.set {
		s.set = false
		r.g.unlink(s)
	}
}

// IsSet reports whether slot i of the range is set.
func (r Slots) IsSet(i int) bool { return r.g.slots[r.index(i)].set }

// index returns slot i of the range's index in the group.
func (r Slots) index(i int) int {
	if uint(i) >= uint(r.n) {
		panic("sim: slot index out of range")
	}
	return r.base + i
}

func (g *group) set(i int, t Time, k Key) {
	if t < g.e.now {
		panic("sim: group slot set before now")
	}
	s := &g.slots[i]
	if s.set {
		panic("sim: group slot already set")
	}
	s.fireKey, s.set = fireKey{t, k.schedAt, k.seq}, true
	// Link it in (at, schedAt, seq) order after p, searching from the end
	// of the list nearer to t: a CPU slice set now usually completes
	// before most set slots, a frame on a long wire arrives after them. A
	// key stamped earlier may sort before a set slot at an equal time, so
	// the search compares whole keys.
	p := g.tail
	if h := g.head; h >= 0 && t-g.slots[h].at < g.slots[p].at-t {
		// t is before the tail's time, so the search stops at the tail
		// at the latest.
		n := h
		for g.slots[n].less(&s.fireKey) {
			n = g.slots[n].next
		}
		p = g.slots[n].prev
	} else {
		for p >= 0 && s.less(&g.slots[p].fireKey) {
			p = g.slots[p].prev
		}
	}
	s.prev = p
	if p < 0 {
		s.next, g.head = g.head, i
	} else {
		s.next, g.slots[p].next = g.slots[p].next, i
	}
	if s.next < 0 {
		g.tail = i
	} else {
		g.slots[s.next].prev = i
	}
}

// run runs the first slot and then each next first slot, for as long as
// it comes before the heap's top, within deadline and before Stop.
func (g *group) run(deadline Time) {
	e := g.e
	for i := g.head; i >= 0 && !e.stopped; i = g.head {
		s := &g.slots[i]
		if s.at > deadline || len(e.heap) > 0 && !s.less(&e.heap[0].fireKey) {
			break
		}
		e.now = s.at
		e.inlined++
		if e.budget > 0 && e.fired+e.inlined > e.budget {
			e.overBudget()
		}
		s.set = false
		g.unlink(s)
		s.fn(s.local)
	}
}

// unlink takes set slot s out of the key-ordered list.
func (g *group) unlink(s *slot) {
	if s.prev < 0 {
		g.head = s.next
	} else {
		g.slots[s.prev].next = s.next
	}
	if s.next < 0 {
		g.tail = s.prev
	} else {
		g.slots[s.next].prev = s.prev
	}
}
