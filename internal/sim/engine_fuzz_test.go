package sim

import "testing"

// FuzzEngineOrder runs a byte-coded program of schedules (At, AtArg),
// timer cancels, clock moves (SetClock) and bounded runs (RunUntil, Run)
// against the engine. Every executed step's callback may schedule more
// work, cancel timers, stop the run, and then hand off to a successor
// the way a CPU core does: try RunAhead, and schedule the successor
// only if that is refused. A reference model orders pending work by
// (at, schedAt, seq) and checks that:
//   - every step, fired or inlined, is the reference's next one, at the
//     engine clock the reference expects;
//   - RunAhead never succeeds while a live event is due at or before t,
//     past the run's deadline, after Stop, or outside a run;
//   - RunUntil leaves nothing due at or before its deadline, Timer.Stop
//     reports liveness exactly, NextAt never overestimates, and the
//     Fired/Inlined/Pending counters match.
func FuzzEngineOrder(f *testing.F) {
	for _, p := range engineOrderSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		m := &orderModel{t: t, e: New(1), prog: prog, deadline: -1}
		m.run()
	})
}

// Top-level program ops; each reads the arguments listed.
const (
	opAt       = iota // delay
	opAtArg           // delay
	opStop            // event index: Timer.Stop
	opRunUntil        // delay: RunUntil(now+delay)
	opRun             // Run to completion
	opSetClock        // delay: SetClock(now+delay), clamped to the next event
	opRunAhead        // delay: RunAhead outside a run must refuse
	numOps
)

// Callback body ops (after a count byte); 0–3 schedule, 4–6 stop a
// timer, 7 stops the run.
const (
	cbSchedule   = 0
	cbStopTimer  = 4
	cbStopEngine = 7
)

// Delay classes (low two bits of the delay's first byte).
const (
	dSmall    = iota // v ns
	dCascade         // next base-256 boundary of level 1–3, ±2 ns
	dShifted         // v << 8, 16 or 24
	dOverflow        // next 2^32 (wheel horizon) boundary + v - 128
)

// refEvent is the reference model's record of one step, queued or inlined.
type refEvent struct {
	at, schedAt Time
	seq         uint64
	timer       Timer
	queued      bool // scheduled on the engine (not inlined)
	done        bool // fired, inlined or cancelled
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

type orderModel struct {
	t    *testing.T
	e    *Engine
	prog []byte
	pos  int

	now      Time
	seq      uint64
	evs      []*refEvent
	deadline Time // -1 outside runs
	stopped  bool

	fired, inlined uint64
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

// nextLive returns the reference's next queued event, or nil.
func (m *orderModel) nextLive() *refEvent {
	var best *refEvent
	for _, ev := range m.evs {
		if ev.queued && !ev.done && (best == nil || ev.before(best)) {
			best = ev
		}
	}
	return best
}

func (m *orderModel) live() int {
	n := 0
	for _, ev := range m.evs {
		if ev.queued && !ev.done {
			n++
		}
	}
	return n
}

// newStep registers a step at t, scheduled now, in the reference order.
func (m *orderModel) newStep(t Time) int {
	m.evs = append(m.evs, &refEvent{at: t, schedAt: m.now, seq: m.seq})
	m.seq++
	return len(m.evs) - 1
}

func (m *orderModel) schedule(id int, arg bool) {
	ev := m.evs[id]
	ev.queued = true
	if arg {
		ev.timer = m.e.AtArg(ev.at, m.onFire, id)
	} else {
		ev.timer = m.e.At(ev.at, func() { m.onFire(id) })
	}
}

func (m *orderModel) stopTimer(i int) {
	if len(m.evs) == 0 {
		return
	}
	ev := m.evs[i%len(m.evs)]
	want := ev.queued && !ev.done
	if got := ev.timer.Stop(); got != want {
		m.t.Fatalf("Timer.Stop = %t, want %t (at %v, now %v)", got, want, ev.at, m.now)
	}
	if want {
		ev.done = true
	}
}

func (m *orderModel) onFire(arg any) {
	id := arg.(int)
	ev := m.evs[id]
	if want := m.nextLive(); want != ev {
		m.t.Fatalf("fired step %d (at %v seq %d), reference next is at %v seq %d",
			id, ev.at, ev.seq, want.at, want.seq)
	}
	if ev.at > m.deadline {
		m.t.Fatalf("fired step at %v past the run deadline %v", ev.at, m.deadline)
	}
	ev.done = true
	m.fired++
	m.step(ev)
}

// step runs one executed step's body and, like a CPU core finishing a
// slice, its run-ahead successors.
func (m *orderModel) step(ev *refEvent) {
	for {
		m.now = ev.at
		if got := m.e.Now(); got != m.now {
			m.t.Fatalf("clock %v at a step due %v", got, m.now)
		}
		for n := m.next() % 4; n > 0; n-- {
			switch op := m.next() % 8; {
			case op < cbStopTimer:
				m.schedule(m.newStep(m.now+m.delay()), op&1 == 1)
			case op < cbStopEngine:
				m.stopTimer(int(m.next()))
			default:
				m.e.Stop()
				m.stopped = true
			}
		}
		if m.next()&1 == 0 {
			return
		}
		id := m.newStep(m.now + m.delay())
		ev = m.evs[id]
		if !m.e.RunAhead(ev.at) {
			m.schedule(id, true)
			return
		}
		m.checkRunAhead(ev)
		ev.done = true
		m.inlined++
	}
}

func (m *orderModel) checkRunAhead(ev *refEvent) {
	switch {
	case m.stopped:
		m.t.Fatalf("RunAhead(%v) succeeded after Stop", ev.at)
	case ev.at > m.deadline:
		m.t.Fatalf("RunAhead(%v) succeeded past the deadline %v", ev.at, m.deadline)
	}
	if nx := m.nextLive(); nx != nil && nx.at <= ev.at {
		m.t.Fatalf("RunAhead(%v) succeeded with a live event at %v", ev.at, nx.at)
	}
}

func (m *orderModel) runTo(deadline Time) {
	m.deadline, m.stopped = deadline, false
	if deadline == maxTime {
		m.e.Run()
	} else {
		m.e.RunUntil(deadline)
	}
	m.deadline = -1
	if m.stopped {
		return
	}
	if nx := m.nextLive(); nx != nil && nx.at <= deadline {
		m.t.Fatalf("run to %v left an event at %v pending", deadline, nx.at)
	}
	if deadline != maxTime {
		m.now = max(m.now, deadline)
	}
}

func (m *orderModel) run() {
	for m.pos < len(m.prog) {
		switch op := m.next() % numOps; op {
		case opAt, opAtArg:
			m.schedule(m.newStep(m.now+m.delay()), op == opAtArg)
		case opStop:
			m.stopTimer(int(m.next()))
		case opRunUntil:
			m.runTo(m.now + m.delay())
		case opRun:
			m.runTo(maxTime)
		case opSetClock:
			t := m.now + m.delay()
			if nx := m.nextLive(); nx != nil && nx.at < t {
				t = nx.at
			}
			m.e.SetClock(t)
			m.now = max(m.now, t)
		case opRunAhead:
			if t := m.now + m.delay(); m.e.RunAhead(t) {
				m.t.Fatalf("RunAhead(%v) succeeded outside a run", t)
			}
		}
		m.checkState()
	}
	m.runTo(maxTime) // the program is spent: no callback stops this run
	m.checkState()
	if n := m.live(); n != 0 {
		m.t.Fatalf("%d events never fired", n)
	}
	if m.e.Fired() != m.fired || m.e.Inlined() != m.inlined {
		m.t.Fatalf("engine fired %d inlined %d, reference %d and %d",
			m.e.Fired(), m.e.Inlined(), m.fired, m.inlined)
	}
}

// checkState compares the engine with the reference between ops.
func (m *orderModel) checkState() {
	if got := m.e.Now(); got != m.now {
		m.t.Fatalf("clock %v, reference %v", got, m.now)
	}
	if got, want := m.e.Pending(), m.live(); got != want {
		m.t.Fatalf("Pending = %d, reference %d", got, want)
	}
	nx := m.nextLive()
	at, ok := m.e.NextAt()
	switch {
	case ok != (nx != nil):
		m.t.Fatalf("NextAt reports pending=%t, reference %t", ok, nx != nil)
	case ok && (at > nx.at || at < m.now):
		m.t.Fatalf("NextAt = %v outside [now %v, next %v]", at, m.now, nx.at)
	}
}

// engineOrderSeeds is the seed corpus: programs aimed at wheel cascade
// boundaries, the overflow heap, equal-time ties, and cancels and clock
// moves around inlined steps.
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
	// body: one scheduled child at d, then a run-ahead successor at s.
	body := func(d, s []byte) []byte { return cat([]byte{1, cbSchedule}, d, []byte{1}, s) }
	return [][]byte{
		// Steps and successors straddling every cascade boundary.
		cat([]byte{opAtArg}, cascade(1, 2), []byte{opAt}, cascade(2, 1),
			[]byte{opAtArg}, cascade(3, 3), []byte{opRunUntil}, cascade(3, 4),
			body(cascade(1, 2), small(7)), body(cascade(2, 2), cascade(1, 0)),
			body(small(0), cascade(1, 4)), []byte{opRun}),
		// Overflow-heap events, a run to just before the horizon and past it.
		cat([]byte{opAt}, overflow(0, 128), []byte{opAtArg}, overflow(1, 127),
			[]byte{opAtArg}, small(3), []byte{opRunUntil}, overflow(0, 127),
			body(overflow(0, 200), small(1)), body(small(5), overflow(1, 128)),
			[]byte{opRun}),
		// A heap event scheduled by a step bounds that step's successor.
		cat([]byte{opAtArg}, small(5), []byte{opRun},
			body(overflow(0, 128), overflow(1, 128)), body(small(0), small(0))),
		// Equal-time ties: a successor at the time of a queued event (or
		// beside a due one) must be refused and fire after it.
		cat([]byte{opAtArg}, small(10), []byte{opAt}, small(20), []byte{opAtArg}, small(20),
			[]byte{opRunUntil}, small(30),
			[]byte{0, 1}, small(10), []byte{0, 1}, small(0), []byte{0, 1}, small(0), []byte{0, 0}),
		// Cancels, a stop inside a callback, and clock moves between runs.
		cat([]byte{opAtArg}, small(50), []byte{opAt}, small(60), []byte{opStop, 1},
			[]byte{opSetClock}, small(40), []byte{opRunAhead}, small(1),
			[]byte{opRunUntil}, small(100), []byte{2, cbStopTimer, 0, cbStopEngine, 1}, small(1),
			[]byte{opAtArg}, cascade(1, 2), []byte{opSetClock}, cascade(1, 2), []byte{opRun}),
	}
}
