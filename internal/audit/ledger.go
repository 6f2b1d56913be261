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
	seq    uint64 // allocation sequence number within its ledger, 1-based
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

// Ledger is the shard-local slice of the auditor's SKB lifecycle
// state: the live map, the recently-freed ring, allocation/disposition
// counters and the trace ring. The serial engine uses a single ledger;
// a PDES cluster gets one per shard (Auditor.LedgerFor), so the
// per-packet hooks touch only state owned by the calling logical
// process and need no locks. The invariant sweeps — which run on the
// coordinator with every shard parked — and the teardown checks sum
// across ledgers.
type Ledger struct {
	a *Auditor
	// E is the owning shard's engine (or the whole Sim for the default
	// ledger): the clock the ledger stamps records and traces with.
	E sim.Sim

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

func newLedger(a *Auditor, e sim.Sim) *Ledger {
	return &Ledger{
		a: a, E: e,
		live:     make(map[*skb.SKB]*record),
		sites:    make(map[string]uint64),
		disposed: make(map[string]uint64),
	}
}

func (l *Ledger) getRecord() *record {
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
func (l *Ledger) retire(r *record) {
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
func (l *Ledger) recentFor(s *skb.SKB) *record {
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

// SKBGet implements skb.Auditor: a fresh SKB entered the datapath.
func (l *Ledger) SKBGet(s *skb.SKB, site string) {
	if prev, ok := l.live[s]; ok {
		l.a.violateAt(l.E.Now(), "ledger", "skb#%d re-issued while live (alloc %q at %v); history: %s",
			prev.seq, prev.site, prev.at, prev.history())
		delete(l.live, s)
		l.freedCnt++ // keep created == freed + live coherent in collect mode
	}
	l.seq++
	l.created++
	r := l.getRecord()
	r.seq, r.gen, r.site, r.at = l.seq, s.Gen(), site, l.E.Now()
	l.live[s] = r
	l.sites[site]++
	l.trace('G', site, r.seq, s.Gen())
}

// SKBStage implements skb.Auditor: a live SKB crossed a device stage.
func (l *Ledger) SKBStage(s *skb.SKB, stage string) {
	r, ok := l.live[s]
	if !ok {
		l.a.violateAt(l.E.Now(), "use-after-free", "stage %q on untracked/freed skb (gen %d)", stage, s.Gen())
		return
	}
	r.push(stage, l.E.Now())
	l.trace('S', stage, r.seq, s.Gen())
}

// SKBFree implements skb.Auditor: a live SKB left the datapath. Its
// last stamped stage becomes the disposition bucket the conservation
// balances count against.
func (l *Ledger) SKBFree(s *skb.SKB) {
	r, ok := l.live[s]
	if !ok {
		l.a.violateAt(l.E.Now(), "double-free", "free of untracked skb (gen %d) — never issued or already freed", s.Gen())
		return
	}
	delete(l.live, s)
	l.freedCnt++
	r.freeAt = l.E.Now()
	l.disposed[r.last()]++
	l.trace('F', r.last(), r.seq, s.Gen())
	l.retire(r)
}

// SKBMisuse implements skb.Auditor: the pool itself rejected an
// operation (double-free or stale-generation free caught by skb.Free /
// Handle.Free). The retired record, if still in the ring, pins the
// misuse to the allocation site and full stage trail of the victim.
func (l *Ledger) SKBMisuse(s *skb.SKB, kind string) {
	l.trace('M', kind, 0, s.Gen())
	if r := l.recentFor(s); r != nil {
		l.a.violateAt(l.E.Now(), kind, "%s of skb#%d (alloc %q at %v, gen %d, freed at %v); history: %s",
			kind, r.seq, r.site, r.at, r.gen, r.freeAt, r.history())
		return
	}
	l.a.violateAt(l.E.Now(), kind, "%s of skb gen %d (record evicted from ring)",
		kind, s.Gen())
}

// SKBHandoff implements skb.Handoffer: a frame crossed a shard
// boundary, so its live record migrates to the ledger owning the
// receiving shard. Runs on the cluster coordinator with both shards
// parked. The allocation stays counted where it happened and the
// eventual free counts at the destination; the teardown conservation
// check sums both sides, so handoffs conserve by construction.
func (l *Ledger) SKBHandoff(s *skb.SKB, to skb.Auditor) {
	t := resolveLedger(to)
	if t == nil || t == l {
		return
	}
	r, ok := l.live[s]
	if !ok {
		// Untracked here (e.g. attached mid-flight); the destination
		// hooks will attribute any misuse.
		return
	}
	delete(l.live, s)
	t.live[s] = r
}

// resolveLedger maps an skb.Auditor back to its concrete ledger.
func resolveLedger(a skb.Auditor) *Ledger {
	switch v := a.(type) {
	case *Ledger:
		return v
	case *Auditor:
		return v.defLedger()
	}
	return nil
}

// Disposed returns a closure summing, across all shard ledgers, the
// frees whose terminal stage was any of stages — the RHS terms of
// conservation balances.
func (a *Auditor) Disposed(stages ...string) func() uint64 {
	return func() uint64 {
		var n uint64
		for _, l := range a.ledgers {
			for _, st := range stages {
				n += l.disposed[st]
			}
		}
		return n
	}
}

// CreatedAt returns a closure summing, across all shard ledgers, the
// allocations at the given sites — the LHS "injected" terms of
// conservation balances.
func (a *Auditor) CreatedAt(sites ...string) func() uint64 {
	return func() uint64 {
		var n uint64
		for _, l := range a.ledgers {
			for _, s := range sites {
				n += l.sites[s]
			}
		}
		return n
	}
}
