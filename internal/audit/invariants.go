package audit

import (
	"fmt"
	"io"
	"strings"

	"falcon/internal/sim"
	"falcon/internal/skb"
)

// Term is one named counter in a conservation equation. Fn is sampled
// at every sweep; the balance compares deltas since its baseline, which
// holds because no counter ever rewinds.
type Term struct {
	Name string
	Fn   func() uint64
}

// T builds a Term.
func T(name string, fn func() uint64) Term { return Term{Name: name, Fn: fn} }

// Balance is one packet-conservation equation: sum(LHS) == sum(RHS),
// compared as deltas from the last prime. The canonical instance is
// injected == delivered + every named drop bucket.
type Balance struct {
	Name     string
	LHS, RHS []Term
	baseL    []uint64
	baseR    []uint64
	primed   bool
}

// Balance registers a conservation equation. Start primes it, so the
// first sweep already compares; one registered after Start is primed by
// its first sweep. Terms may be appended to the returned value at any
// time.
func (a *Auditor) Balance(name string, lhs, rhs []Term) *Balance {
	b := &Balance{Name: name, LHS: lhs, RHS: rhs}
	a.balances = append(a.balances, b)
	return b
}

// AddLHS appends a term (used by OpenUDP to register per-socket
// delivery counters after the balance already exists). On a primed
// balance the term's current value becomes its baseline, so the other
// terms keep theirs and the interval it joins in is still checked.
func (b *Balance) AddLHS(t Term) {
	b.LHS = append(b.LHS, t)
	if b.primed {
		b.baseL = append(b.baseL, t.Fn())
	}
}

func (b *Balance) prime() {
	b.baseL = sample(b.LHS, b.baseL)
	b.baseR = sample(b.RHS, b.baseR)
	b.primed = true
}

func sample(ts []Term, into []uint64) []uint64 {
	into = into[:0]
	for _, t := range ts {
		into = append(into, t.Fn())
	}
	return into
}

// check returns "" when balanced, else a rendered discrepancy with
// every term's delta so the mismatch is attributed to a stage.
func (b *Balance) check() string {
	if !b.primed {
		b.prime()
		return ""
	}
	// Deltas are signed: gauge terms (in-flight counts) may sit below
	// their baseline at check time.
	var sumL, sumR int64
	curL := make([]int64, len(b.LHS))
	curR := make([]int64, len(b.RHS))
	for i, t := range b.LHS {
		curL[i] = int64(t.Fn()) - int64(b.baseL[i])
		sumL += curL[i]
	}
	for i, t := range b.RHS {
		curR[i] = int64(t.Fn()) - int64(b.baseR[i])
		sumR += curR[i]
	}
	if sumL == sumR {
		return ""
	}
	var s strings.Builder
	fmt.Fprintf(&s, "balance %q broken: lhs %d != rhs %d (missing %d);", b.Name, sumL, sumR, sumL-sumR)
	for i, t := range b.LHS {
		fmt.Fprintf(&s, " %s=%d", t.Name, curL[i])
	}
	s.WriteString(" |")
	for i, t := range b.RHS {
		fmt.Fprintf(&s, " %s=%d", t.Name, curR[i])
	}
	return s.String()
}

// queueSrc is one registered queue whose linked-list length must always
// equal enqueues − dequeues (skb.Queue.Validate).
type queueSrc struct {
	name string
	q    *skb.Queue
}

// AddQueue registers a queue for per-sweep structural validation.
func (a *Auditor) AddQueue(name string, q *skb.Queue) {
	if q == nil {
		return
	}
	a.queues = append(a.queues, queueSrc{name: name, q: q})
}

// AddQueues registers queues discovered lazily: each sweep calls visit,
// which yields (name, queue) pairs live at that moment — used for NIC
// rings that RSS reconfiguration creates mid-run.
func (a *Auditor) AddQueues(visit func(yield func(name string, q *skb.Queue))) {
	a.lazyQueues = append(a.lazyQueues, visit)
}

func (a *Auditor) checkQueues() {
	for _, qs := range a.queues {
		a.checkQueue(qs.name, qs.q)
	}
	for _, visit := range a.lazyQueues {
		visit(a.checkQueue)
	}
}

func (a *Auditor) checkQueue(name string, q *skb.Queue) {
	if q == nil {
		return
	}
	if walk, ok := q.Validate(); !ok {
		a.violate("queue", "queue %q corrupt: walked %d, len %d, enq %d, deq %d",
			name, walk, q.Len(), q.Enqueued(), q.Dequeued())
	}
}

// WatchState is one watchdog sample for a watched unit (a core's
// softirq/NAPI machinery). Progress is any monotonic activity counter;
// Queued is the pending work the unit should be draining; Frozen marks
// units deliberately halted by fault injection.
type WatchState struct {
	Queued   int
	Progress uint64
	Frozen   bool
}

type watch struct {
	name  string
	probe func() WatchState
	last  WatchState
	since sim.Time
	armed bool
}

// Watch registers a stall probe. The watchdog fires when a probe
// reports queued work with no progress (no Progress movement, no queue
// shrink) for a full watchdogWindow.
func (a *Auditor) Watch(name string, probe func() WatchState) {
	a.watches = append(a.watches, &watch{name: name, probe: probe})
}

func (a *Auditor) scanWatches() {
	now := a.E.Now()
	for _, w := range a.watches {
		st := w.probe()
		if st.Queued == 0 || (st.Frozen && !a.cfg.WatchFrozen) {
			w.armed = false
			w.last = st
			continue
		}
		progressed := !w.armed || st.Progress != w.last.Progress || st.Queued < w.last.Queued
		if progressed {
			w.armed = true
			w.last = st
			w.since = now
			continue
		}
		if now-w.since >= watchdogWindow {
			a.violate("watchdog", "%s hung: %d queued, no progress for %v (progress=%d frozen=%t)\n%s",
				w.name, st.Queued, now-w.since, st.Progress, st.Frozen, a.stateString())
			// In collect mode re-arm so one stall yields one violation
			// per window, not one per sweep.
			w.since = now
		}
	}
}

// AddDump registers a per-core state renderer included in every
// failure dump and watchdog report.
func (a *Auditor) AddDump(fn func(w io.Writer)) {
	a.dumps = append(a.dumps, fn)
}
