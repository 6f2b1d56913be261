package audit

import (
	"fmt"
	"strings"

	"falcon/internal/sim"
	"falcon/internal/skb"
)

// historyDepth is the per-SKB stage ring: the last historyDepth stages
// an SKB visited, enough to reconstruct a full datapath traversal
// (tx → wire → nic-ring → napi-poll → backlog → decap → bridge →
// sock-queue → delivered is 9 hops).
const historyDepth = 16

// record is the ledger entry for one SKB incarnation (one Get..Free
// span). Records are pooled; a fixed ring of recently freed records is
// retained so double-free and stale-free violations can report the
// victim's full stage history.
type record struct {
	seq    uint64 // allocation sequence number within the run, 1-based
	gen    uint32 // skb generation at allocation
	site   string // allocation site: "tx:send" (every L4 send) or "tx:frag"
	at     sim.Time
	freeAt sim.Time
	n      int // stages recorded (may exceed historyDepth)
	stages [historyDepth]string
	times  [historyDepth]sim.Time
}

func (r *record) push(stage string, at sim.Time) {
	r.stages[r.n%historyDepth] = stage
	r.times[r.n%historyDepth] = at
	r.n++
}

func (r *record) last() string {
	if r.n == 0 {
		return r.site
	}
	return r.stages[(r.n-1)%historyDepth]
}

// history renders the stage trail oldest-first; a truncated ring is
// prefixed with the count of elided stages.
func (r *record) history() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%v", r.site, r.at)
	start, elided := 0, 0
	if r.n > historyDepth {
		start = r.n - historyDepth
		elided = start
	}
	if elided > 0 {
		fmt.Fprintf(&b, " ..(%d elided)..", elided)
	}
	for i := start; i < r.n; i++ {
		fmt.Fprintf(&b, " -> %s@%v", r.stages[i%historyDepth], r.times[i%historyDepth])
	}
	return b.String()
}

// ledger is the auditor's SKB lifecycle state: the live map, the
// recently-freed ring, allocation/disposition counters and the trace
// ring. A run has one, written by every host's Tap and read by the
// invariant sweeps and the teardown checks.
type ledger struct {
	live     map[*skb.SKB]*record
	recent   []*record // ring of recently freed records, newest last
	recentAt int
	freeRecs []*record // record pool
	seq      uint64
	created  uint64
	freedCnt uint64
	sites    map[string]uint64 // allocations per site
	disposed map[string]uint64 // frees per terminal stage

	// Trace ring (trace.go).
	ring    []traceEv
	ringAt  int
	ringLen int
}

func (l *ledger) getRecord() *record {
	if n := len(l.freeRecs); n > 0 {
		r := l.freeRecs[n-1]
		l.freeRecs = l.freeRecs[:n-1]
		*r = record{}
		return r
	}
	return &record{}
}

// retire moves a freed record into the recently-freed ring, recycling
// whatever it displaces.
func (l *ledger) retire(r *record) {
	if l.recent == nil {
		l.recent = make([]*record, ringSize)
	}
	if old := l.recent[l.recentAt]; old != nil {
		l.freeRecs = append(l.freeRecs, old)
	}
	l.recent[l.recentAt] = r
	l.recentAt = (l.recentAt + 1) % len(l.recent)
}

// recentFor finds the newest retired record for s (by pointer identity
// and generation), for misuse attribution.
func (l *ledger) recentFor(s *skb.SKB) *record {
	if l.recent == nil {
		return nil
	}
	n := len(l.recent)
	for i := 1; i <= n; i++ {
		r := l.recent[(l.recentAt-i+n)%n]
		if r == nil {
			return nil
		}
		if r.gen == s.Gen()-1 || r.gen == s.Gen() {
			if _, live := l.live[s]; !live {
				return r
			}
		}
	}
	return nil
}

// Tap is one host's attachment to the auditor: the skb.Auditor hooks,
// writing the run's one ledger and stamping with the clock of the
// engine the host runs on. A frame that crosses to another LP is
// re-pointed at the receiving host's tap (skb.SKB.AuditHandoff), so
// every stamp carries the clock of the LP running that stage.
type Tap struct {
	a *Auditor
	e sim.Sim
}

// For returns the tap of a host running on engine e.
func (a *Auditor) For(e sim.Sim) Tap { return Tap{a: a, e: e} }

// SKBGet implements skb.Auditor: a fresh SKB entered the datapath.
func (t Tap) SKBGet(s *skb.SKB, site string) {
	l, now := &t.a.l, t.e.Now()
	if prev, ok := l.live[s]; ok {
		t.a.violateAt(now, "ledger", "skb#%d re-issued while live (alloc %q at %v); history: %s",
			prev.seq, prev.site, prev.at, prev.history())
		delete(l.live, s)
		l.freedCnt++ // keep created == freed + live coherent in collect mode
	}
	l.seq++
	l.created++
	r := l.getRecord()
	r.seq, r.gen, r.site, r.at = l.seq, s.Gen(), site, now
	l.live[s] = r
	l.sites[site]++
	l.trace(now, 'G', site, r.seq, s.Gen())
}

// SKBStage implements skb.Auditor: a live SKB crossed a device stage.
func (t Tap) SKBStage(s *skb.SKB, stage string) {
	l, now := &t.a.l, t.e.Now()
	r, ok := l.live[s]
	if !ok {
		t.a.violateAt(now, "use-after-free", "stage %q on untracked/freed skb (gen %d)", stage, s.Gen())
		return
	}
	r.push(stage, now)
	l.trace(now, 'S', stage, r.seq, s.Gen())
}

// SKBFree implements skb.Auditor: a live SKB left the datapath. Its
// last stamped stage becomes the disposition bucket the conservation
// balances count against.
func (t Tap) SKBFree(s *skb.SKB) {
	l, now := &t.a.l, t.e.Now()
	r, ok := l.live[s]
	if !ok {
		t.a.violateAt(now, "double-free", "free of untracked skb (gen %d) — never issued or already freed", s.Gen())
		return
	}
	delete(l.live, s)
	l.freedCnt++
	r.freeAt = now
	l.disposed[r.last()]++
	l.trace(now, 'F', r.last(), r.seq, s.Gen())
	l.retire(r)
}

// SKBMisuse implements skb.Auditor: the pool itself rejected an
// operation (double-free or stale-generation free caught by skb.Free /
// Handle.Free). The retired record, if still in the ring, pins the
// misuse to the allocation site and full stage trail of the victim.
func (t Tap) SKBMisuse(s *skb.SKB, kind string) {
	l, now := &t.a.l, t.e.Now()
	l.trace(now, 'M', kind, 0, s.Gen())
	if r := l.recentFor(s); r != nil {
		t.a.violateAt(now, kind, "%s of skb#%d (alloc %q at %v, gen %d, freed at %v); history: %s",
			kind, r.seq, r.site, r.at, r.gen, r.freeAt, r.history())
		return
	}
	t.a.violateAt(now, kind, "%s of skb gen %d (record evicted from ring)",
		kind, s.Gen())
}

// Disposed returns a closure counting the frees whose terminal stage
// was any of stages — the RHS terms of conservation balances.
func (a *Auditor) Disposed(stages ...string) func() uint64 {
	return func() uint64 {
		var n uint64
		for _, st := range stages {
			n += a.l.disposed[st]
		}
		return n
	}
}

// CreatedAt returns a closure counting the allocations at the given
// sites — the LHS "injected" terms of conservation balances.
func (a *Auditor) CreatedAt(sites ...string) func() uint64 {
	return func() uint64 {
		var n uint64
		for _, s := range sites {
			n += a.l.sites[s]
		}
		return n
	}
}
