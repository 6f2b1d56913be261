package sim

import "slices"

// group multiplexes every slot of an engine onto one engine event. A slot
// holds at most one pending firing of its owner's callback, keyed exactly
// as an AtArg schedule would be: (at, schedAt, seq). Set stamps the
// tie-break half from the engine then; SetKey takes one stamped earlier
// with Engine.Stamp, so an owner with several firings pending in FIFO
// order (a link with frames on the wire) keeps one slot set to its head
// under the key the head's own event would have had. Between events the
// group keeps one engine event armed with its earliest slot's key. When
// that event fires, the group runs the slot, then keeps running whichever
// slot is next in key order, inline, for as long as the engine's inline
// check proves it is the engine's next event; the first slot it refuses
// arms the event with its own stamped key. Any other fired event settles
// the group when its callback returns: the armed event is cancelled and
// the first slot runs inline the same way, or is armed. A Set inside a
// run therefore only links the slot, and an engine timer's callback that
// sets one (a TCP retransmit timeout resending a segment) goes on into
// it without a second engine event. Slot callbacks run in precisely the
// order one event per firing would give them (DESIGN.md §2), and a run
// of consecutive slot firings costs at most one engine fire instead of
// one each.
//
// Owners reserve ranges of slots with Engine.NewSlots, at construction or
// mid-run. Since one group serves the whole engine, a hand-off from one
// owner to another (a frame's arrival raising the receiving NIC's
// interrupt, a client machine's slice completing just before the
// server's) runs inline too.
type group struct {
	e *Engine

	slots      []slot
	head, tail int // the set slots, linked in key order; -1 when none

	armed Timer // carries the first slot's key between events
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
func (r Slots) SetKey(i int, t Time, k Key) {
	if uint(i) >= uint(r.n) {
		panic("sim: slot index out of range")
	}
	r.g.set(r.base+i, t, k)
}

func (g *group) set(i int, t Time, k Key) {
	if t < g.e.now {
		panic("sim: group slot set before now")
	}
	s := &g.slots[i]
	if s.set {
		panic("sim: group slot already set")
	}
	s.at, s.schedAt, s.seq, s.set = t, k.schedAt, k.seq, true
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
		for g.slots[n].before(s) {
			n = g.slots[n].next
		}
		p = g.slots[n].prev
	} else {
		for p >= 0 && s.before(&g.slots[p]) {
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
	// Inside a run every Set comes from an event's callback, and the
	// group's own loop, or the settle after any other event, arms it.
	if g.e.deadline >= 0 || g.head != i {
		return
	}
	g.armed.Stop() // a no-op when nothing was armed
	g.arm(i)
}

// before reports whether s fires before o: the (at, schedAt, seq) order.
func (s *slot) before(o *slot) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	if s.schedAt != o.schedAt {
		return s.schedAt < o.schedAt
	}
	return s.seq < o.seq
}

// arm schedules the group's one event with slot i's stamped key.
func (g *group) arm(i int) {
	s := &g.slots[i]
	g.armed = g.e.atStamped(s.at, s.schedAt, s.seq, groupFire, g)
}

// groupFire runs the armed slot, which is the earliest, and then the
// slots after it. Package-level so arming needs no closure.
func groupFire(v any) {
	g := v.(*group)
	g.run(g.head)
}

// settle runs the first slot inline if it is the engine's next event,
// after an event other than the group's own, or arms it. Any armed event
// is cancelled first: the fired event may have set an earlier slot, and
// the armed event would make the inline check refuse its own slot.
func (g *group) settle() {
	g.armed.Stop()
	if i := g.head; g.e.inline(g.slots[i].at) {
		g.run(i)
	} else {
		g.arm(i)
	}
}

// run runs slot i, the first, and then, inline, every next first slot
// that is provably the engine's next event, arming the first that is
// not.
func (g *group) run(i int) {
	for {
		s := &g.slots[i]
		s.set, g.head = false, s.next
		if g.head < 0 {
			g.tail = -1
		} else {
			g.slots[g.head].prev = -1
		}
		s.fn(s.local)
		if i = g.head; i < 0 {
			return
		}
		if !g.e.inline(g.slots[i].at) {
			g.arm(i)
			return
		}
	}
}
