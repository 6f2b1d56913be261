package sim

import "slices"

// group multiplexes every slot of an engine onto one engine event. A slot
// holds at most one pending firing of its owner's callback, keyed exactly
// as an AtArg schedule made when the slot was set: (at, schedAt, seq),
// with the tie-break half stamped from the engine at Set time. The group
// keeps one engine event armed with its earliest slot's key. When that
// event fires, the group runs the slot, then keeps running whichever slot
// is next in key order, inline, for as long as runAhead proves it is the
// engine's next event; the first slot runAhead refuses re-arms the event
// with its own stamped key. Slot callbacks therefore run in precisely the
// order one event per slot would give them (DESIGN.md §2), and a run of
// consecutive slot firings costs one engine fire instead of one each.
//
// Owners reserve ranges of slots with Engine.NewSlots. Since one group
// serves the whole engine, a hand-off from one owner to another (a client
// machine's slice completing just before the server's) runs inline too.
type group struct {
	e *Engine

	slots      []slot
	head, tail int // the set slots, linked in key order; -1 when none

	armed  Timer // carries the first slot's key while no firing runs
	firing bool  // inside the armed event: Set leaves arming to the loop
}

// slot is one pending firing: its time and stamped tie-break key, its
// neighbours in key order, and the owner callback it runs with its index
// in the owner's range.
type slot struct {
	at, schedAt Time
	seq         uint64
	prev, next  int
	set         bool

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
	if e.group == nil {
		e.group = &group{e: e, head: -1, tail: -1}
	}
	g := e.group
	base := len(g.slots)
	g.slots = slices.Grow(g.slots, n)
	for i := 0; i < n; i++ {
		g.slots = append(g.slots, slot{fn: fn, local: i})
	}
	return Slots{g: g, base: base, n: n}
}

// Set schedules slot i of the range to fire at t, stamping its tie-break
// key now. The slot must be empty; setting a time before now panics, as
// At does.
func (r Slots) Set(i int, t Time) {
	if uint(i) >= uint(r.n) {
		panic("sim: slot index out of range")
	}
	r.g.set(r.base+i, t)
}

func (g *group) set(i int, t Time) {
	e := g.e
	if t < e.now {
		panic("sim: group slot set before now")
	}
	s := &g.slots[i]
	if s.set {
		panic("sim: group slot already set")
	}
	s.at, s.schedAt, s.seq, s.set = t, e.now, e.stamp(), true
	// Link it in (at, schedAt, seq) order, searching back from the latest
	// slot: a slot set now usually completes after most of those already
	// set. Every slot already set holds an earlier stamp from this engine,
	// whose clock never runs backwards, so the search passes only the
	// slots with a later time and stops at an equal one.
	p := g.tail
	for p >= 0 && t < g.slots[p].at {
		p = g.slots[p].prev
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
	if g.firing || g.head != i {
		return
	}
	g.armed.Stop() // a no-op when nothing was armed
	g.arm(i)
}

// arm schedules the group's one event with slot i's stamped key.
func (g *group) arm(i int) {
	s := &g.slots[i]
	g.armed = g.e.atStamped(s.at, s.schedAt, s.seq, groupFire, g)
}

// groupFire runs the armed slot, which is the earliest, and then, inline,
// every next earliest slot that is provably the engine's next event.
// Package-level so arming needs no closure.
func groupFire(v any) {
	g := v.(*group)
	g.firing = true
	for i := g.head; ; {
		s := &g.slots[i]
		s.set, g.head = false, s.next
		if g.head < 0 {
			g.tail = -1
		} else {
			g.slots[g.head].prev = -1
		}
		s.fn(s.local)
		if i = g.head; i < 0 {
			break
		}
		if !g.e.runAhead(g.slots[i].at) {
			g.arm(i)
			break
		}
	}
	g.firing = false
}
