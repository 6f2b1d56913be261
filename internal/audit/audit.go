// Package audit is the datapath's opt-in runtime verification
// subsystem: an SKB lifecycle ledger over the pooled hot path,
// packet-conservation invariants checked on a sim-time cadence, a
// softirq/NAPI watchdog mirroring the kernel's hung-softirq detection,
// and a fixed-size trace ring dumped on any breach for deterministic
// seed replay (falconsim -replay).
//
// The auditor is a pure observer: it reads counters and queue state,
// draws no randomness, and mutates nothing on the datapath, so enabling
// it leaves a run's stdout byte-identical. With auditing off the entire
// subsystem costs one nil-check per lifecycle hook (see skb.Auditor).
package audit

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"falcon/internal/sim"
	"falcon/internal/skb"
)

const (
	// checkEvery is the sim-time cadence of the periodic invariant
	// sweep (conservation balances, queue validation, watchdog scan).
	checkEvery = sim.Millisecond
	// watchdogWindow is how long a watch may hold queued work without
	// progress before the watchdog aborts the run.
	watchdogWindow = 5 * sim.Millisecond
	// ringSize bounds the trace ring (recent lifecycle events kept for
	// the failure dump) and the recently-freed record ring.
	ringSize = 256
)

// Config tunes one auditor.
type Config struct {
	// WatchFrozen includes cores that fault injection deliberately
	// froze (Stalled/Offline) in watchdog stall detection. Off by
	// default: the chaos harness stalls cores on purpose and the
	// simulator's ground truth exempts them.
	WatchFrozen bool
	// OnViolation, when non-nil, collects violations instead of
	// aborting the run — negative tests use it to assert attribution.
	// When nil, the first violation panics with *Abort.
	OnViolation func(*Violation)
}

// Violation is one detected invariant breach.
type Violation struct {
	// Kind classifies the breach: "leak", "double-free", "stale-free",
	// "use-after-free", "conservation", "queue", "watchdog", "ledger".
	Kind   string
	At     sim.Time
	Detail string
}

func (v *Violation) String() string {
	return fmt.Sprintf("audit: [%s] at %v: %s", v.Kind, v.At, v.Detail)
}

// Abort is the panic value raised on a violation when no collector is
// installed. It carries the auditor so the recovery site (falconsim)
// can write the full diagnostic dump for -replay.
type Abort struct {
	V *Violation
	A *Auditor
}

func (ab *Abort) Error() string { return ab.V.String() }

// Auditor verifies one simulation run. The SKB lifecycle ledger is
// partitioned per PDES shard (LedgerFor); the auditor itself drives
// the conservation, queue and watchdog sweeps off a periodic timer on
// the Sim's control queue — on a cluster those fire at barriers with
// every shard parked, so sweeps read shard state safely. One auditor
// audits one simulation; concurrent experiment runs each build their
// own. The Auditor still implements skb.Auditor directly (through a
// default ledger) for tests and single-engine callers.
type Auditor struct {
	E   sim.Sim
	cfg Config

	// Ledger state (ledger.go): one shard-local slice per engine, plus
	// a lazily built default for direct Auditor use.
	ledgers  []*Ledger
	byEngine map[*sim.Engine]*Ledger
	def      *Ledger

	// Invariants (balance.go) and watchdog (watchdog.go).
	balances   []*Balance
	queues     []queueSrc
	lazyQueues []func(yield func(name string, q *skb.Queue))
	watches    []*watch
	dumps      []func(w io.Writer)

	// mu orders violation reporting: per-packet hooks on different
	// shards may violate concurrently (cold path — every report is
	// already a failed run).
	mu         sync.Mutex
	violations []Violation
	timer      sim.Slots // the periodic sweep
}

// New builds an auditor over simulation e (a serial *sim.Engine or a
// *sim.Cluster). Call the registration methods (Balance, AddQueue(s),
// Watch, AddDump), then Start.
func New(e sim.Sim, cfg Config) *Auditor {
	a := &Auditor{
		E:        e,
		cfg:      cfg,
		byEngine: make(map[*sim.Engine]*Ledger),
	}
	a.timer = e.NewSlots(1, a.onTimer)
	return a
}

// LedgerFor returns the shard-local ledger owning engine e, creating it
// on first use. Hosts attach the ledger of their own engine, so the
// per-packet hooks never touch another shard's state.
func (a *Auditor) LedgerFor(e *sim.Engine) *Ledger {
	if l, ok := a.byEngine[e]; ok {
		return l
	}
	l := newLedger(a, e)
	a.byEngine[e] = l
	a.ledgers = append(a.ledgers, l)
	return l
}

// defLedger is the ledger behind the Auditor's own skb.Auditor methods.
func (a *Auditor) defLedger() *Ledger {
	if a.def == nil {
		if e, ok := a.E.(*sim.Engine); ok {
			a.def = a.LedgerFor(e)
		} else {
			a.def = newLedger(a, a.E)
			a.ledgers = append(a.ledgers, a.def)
		}
	}
	return a.def
}

// skb.Auditor delegation to the default ledger.

func (a *Auditor) SKBGet(s *skb.SKB, site string)    { a.defLedger().SKBGet(s, site) }
func (a *Auditor) SKBStage(s *skb.SKB, stage string) { a.defLedger().SKBStage(s, stage) }
func (a *Auditor) SKBFree(s *skb.SKB)                { a.defLedger().SKBFree(s) }
func (a *Auditor) SKBMisuse(s *skb.SKB, kind string) { a.defLedger().SKBMisuse(s, kind) }

// Start primes every balance and arms the periodic invariant sweep, so
// the first sweep checks the interval since Start.
func (a *Auditor) Start() {
	for _, b := range a.balances {
		b.prime()
	}
	a.timer.Set(0, a.E.Now()+checkEvery)
}

// onTimer runs one sweep and re-arms the timer; Final cancels it.
func (a *Auditor) onTimer(int) {
	a.runChecks()
	a.timer.Set(0, a.E.Now()+checkEvery)
}

// runChecks is one periodic sweep: queue validation, conservation
// balances, then the watchdog scan.
func (a *Auditor) runChecks() {
	a.traceNote("check")
	a.checkQueues()
	for _, b := range a.balances {
		if msg := b.check(); msg != "" {
			a.violate("conservation", "%s", msg)
		}
	}
	a.scanWatches()
}

// Final stops the sweep and runs the teardown checks: a last sweep, the
// ledger's structural conservation (summed across shard ledgers — SKB
// handoffs allocate on one shard and free on another, so only the sum
// is invariant), and the end-of-run leak check (every SKB still live in
// any ledger is a leak, reported in allocation order with its full
// stage history). It returns all collected violations; in abort mode
// the first teardown violation panics.
func (a *Auditor) Final() []Violation {
	a.timer.Clear(0)
	a.runChecks()
	created, freed, live := a.ledgerTotals()
	if created != freed+uint64(live) {
		a.violate("ledger", "created %d != freed %d + live %d", created, freed, live)
	}
	if live > 0 {
		recs := make([]*record, 0, live)
		for _, l := range a.ledgers {
			for _, r := range l.live {
				recs = append(recs, r)
			}
		}
		// Allocation-time order; per-ledger seq breaks same-nanosecond
		// ties (exact serial order for a single ledger).
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].at != recs[j].at {
				return recs[i].at < recs[j].at
			}
			return recs[i].seq < recs[j].seq
		})
		for _, r := range recs {
			a.violate("leak", "skb#%d (alloc %q at %v, gen %d) never freed; age %v; history: %s",
				r.seq, r.site, r.at, r.gen, a.E.Now()-r.at, r.history())
		}
	}
	return a.violations
}

// ledgerTotals sums the structural counters across shard ledgers.
func (a *Auditor) ledgerTotals() (created, freed uint64, live int) {
	for _, l := range a.ledgers {
		created += l.created
		freed += l.freedCnt
		live += len(l.live)
	}
	return
}

// Violations returns everything collected so far (collect mode).
func (a *Auditor) Violations() []Violation { return a.violations }

// LiveCount returns the number of SKBs currently tracked as live in any
// ledger — the teardown drain loop polls it before running the leak
// check.
func (a *Auditor) LiveCount() int {
	n := 0
	for _, l := range a.ledgers {
		n += len(l.live)
	}
	return n
}

// Created returns lifetime SKB attachments across all ledgers.
func (a *Auditor) Created() uint64 {
	var n uint64
	for _, l := range a.ledgers {
		n += l.created
	}
	return n
}

func (a *Auditor) violate(kind, format string, args ...any) {
	a.violateAt(a.E.Now(), kind, format, args...)
}

// violateAt reports a breach stamped with the detecting shard's clock.
// Per-packet hooks on different shards may report concurrently, so the
// record-and-collect step is mutex-ordered (cold path: any report means
// the run already failed); in abort mode the panic unwinds the calling
// shard and the cluster re-raises it deterministically.
func (a *Auditor) violateAt(at sim.Time, kind, format string, args ...any) {
	v := Violation{Kind: kind, At: at, Detail: fmt.Sprintf(format, args...)}
	a.mu.Lock()
	a.violations = append(a.violations, v)
	abort := a.cfg.OnViolation == nil
	if !abort {
		a.cfg.OnViolation(&v)
	}
	a.mu.Unlock()
	if abort {
		panic(&Abort{V: &v, A: a})
	}
}

// WriteState renders the auditor's full diagnostic state: ledger
// counters and dispositions (summed across shard ledgers), registered
// dump callbacks (per-core state) and the trace ring(s). It is the
// body of every failure dump.
func (a *Auditor) WriteState(w io.Writer) {
	created, freed, live := a.ledgerTotals()
	fmt.Fprintf(w, "ledger: created=%d freed=%d live=%d pool-misuses=%d\n",
		created, freed, live, skb.PoolMisuses())
	sum := make(map[string]uint64)
	for _, l := range a.ledgers {
		for k, n := range l.disposed {
			sum[k] += n
		}
	}
	keys := make([]string, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  disposed %-20s %d\n", k, sum[k])
	}
	for _, fn := range a.dumps {
		fn(w)
	}
	if len(a.ledgers) == 1 {
		a.ledgers[0].writeRing(w)
		return
	}
	for i, l := range a.ledgers {
		fmt.Fprintf(w, "shard ledger %d:\n", i)
		l.writeRing(w)
	}
}

// stateString is WriteState into a string (for panic messages).
func (a *Auditor) stateString() string {
	var b strings.Builder
	a.WriteState(&b)
	return b.String()
}
