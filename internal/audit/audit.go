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

// Auditor verifies one simulation run. It keeps the run's one SKB
// lifecycle ledger, which every host writes through its own Tap (For),
// and drives the conservation, queue and watchdog sweeps off a periodic
// timer on the Sim's control queue — on a cluster those fire at
// barriers with every shard parked. Every LP of a cluster runs on the
// coordinator's goroutine, so nothing here is locked. One auditor
// audits one simulation; concurrent experiment runs each build their
// own. The Auditor also implements skb.Auditor directly, stamping with
// the Sim's clock, for tests and single-engine callers.
type Auditor struct {
	E   sim.Sim
	cfg Config

	l ledger // the SKB lifecycle ledger (ledger.go)

	// Invariants (balance.go) and watchdog (watchdog.go).
	balances   []*Balance
	queues     []queueSrc
	lazyQueues []func(yield func(name string, q *skb.Queue))
	watches    []*watch
	dumps      []func(w io.Writer)

	violations []Violation
	timer      sim.Slots // the periodic sweep
}

// New builds an auditor over simulation e (a serial *sim.Engine or a
// *sim.Cluster). Call the registration methods (Balance, AddQueue(s),
// Watch, AddDump), then Start.
func New(e sim.Sim, cfg Config) *Auditor {
	a := &Auditor{
		E:   e,
		cfg: cfg,
		l: ledger{
			live:     make(map[*skb.SKB]*record),
			sites:    make(map[string]uint64),
			disposed: make(map[string]uint64),
		},
	}
	a.timer = e.NewSlots(1, a.onTimer)
	return a
}

// skb.Auditor through the Sim's own clock.

func (a *Auditor) SKBGet(s *skb.SKB, site string)    { a.For(a.E).SKBGet(s, site) }
func (a *Auditor) SKBStage(s *skb.SKB, stage string) { a.For(a.E).SKBStage(s, stage) }
func (a *Auditor) SKBFree(s *skb.SKB)                { a.For(a.E).SKBFree(s) }
func (a *Auditor) SKBMisuse(s *skb.SKB, kind string) { a.For(a.E).SKBMisuse(s, kind) }

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
// ledger's structural conservation, and the end-of-run leak check
// (every SKB still live is a leak, reported in allocation-time order
// with its full stage history). It returns all collected violations; in
// abort mode the first teardown violation panics.
func (a *Auditor) Final() []Violation {
	a.timer.Clear(0)
	a.runChecks()
	l := &a.l
	if l.created != l.freedCnt+uint64(len(l.live)) {
		a.violate("ledger", "created %d != freed %d + live %d", l.created, l.freedCnt, len(l.live))
	}
	recs := make([]*record, 0, len(l.live))
	for _, r := range l.live {
		recs = append(recs, r)
	}
	// On a cluster, allocations are numbered in LP execution order,
	// which within a window is not time order.
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
	return a.violations
}

// Violations returns everything collected so far (collect mode).
func (a *Auditor) Violations() []Violation { return a.violations }

// LiveCount returns the number of SKBs currently tracked as live — the
// teardown drain loop polls it before running the leak check.
func (a *Auditor) LiveCount() int { return len(a.l.live) }

// Created returns lifetime SKB attachments.
func (a *Auditor) Created() uint64 { return a.l.created }

func (a *Auditor) violate(kind, format string, args ...any) {
	a.violateAt(a.E.Now(), kind, format, args...)
}

// violateAt records a breach stamped with the detecting host's clock;
// in abort mode it panics with *Abort.
func (a *Auditor) violateAt(at sim.Time, kind, format string, args ...any) {
	v := Violation{Kind: kind, At: at, Detail: fmt.Sprintf(format, args...)}
	a.violations = append(a.violations, v)
	if a.cfg.OnViolation == nil {
		panic(&Abort{V: &v, A: a})
	}
	a.cfg.OnViolation(&v)
}

// WriteState renders the auditor's full diagnostic state: ledger
// counters and dispositions, registered dump callbacks (per-core state)
// and the trace ring. It is the body of every failure dump.
func (a *Auditor) WriteState(w io.Writer) {
	l := &a.l
	fmt.Fprintf(w, "ledger: created=%d freed=%d live=%d pool-misuses=%d\n",
		l.created, l.freedCnt, len(l.live), skb.PoolMisuses())
	keys := make([]string, 0, len(l.disposed))
	for k := range l.disposed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  disposed %-20s %d\n", k, l.disposed[k])
	}
	for _, fn := range a.dumps {
		fn(w)
	}
	l.writeRing(w)
}

// stateString is WriteState into a string (for panic messages).
func (a *Auditor) stateString() string {
	var b strings.Builder
	a.WriteState(&b)
	return b.String()
}
