package audit

import (
	"strings"
	"testing"

	"falcon/internal/sim"
	"falcon/internal/skb"
)

// collector builds an auditor in collect mode over a fresh engine and
// returns both plus the violation slice (filled as they happen).
func collector(t *testing.T, cfg Config) (*sim.Engine, *Auditor, *[]Violation) {
	t.Helper()
	e := sim.New(1)
	var got []Violation
	cfg.OnViolation = func(v *Violation) { got = append(got, *v) }
	a := New(e, cfg)
	a.Start()
	return e, a, &got
}

func kinds(vs []Violation) []string {
	out := make([]string, len(vs))
	for i := range vs {
		out[i] = vs[i].Kind
	}
	return out
}

func TestLeakDetectedAtFinal(t *testing.T) {
	e, a, got := collector(t, Config{})
	s := skb.NewTx(64, 0, 0)
	s.Audit(a, "test:leak-site")
	s.Stage("test:limbo")
	e.RunUntil(3 * sim.Millisecond)
	if len(*got) != 0 {
		t.Fatalf("violations before Final: %v", *got)
	}
	a.Final()
	if len(*got) != 1 || (*got)[0].Kind != "leak" {
		t.Fatalf("want one leak violation, got %v", kinds(*got))
	}
	d := (*got)[0].Detail
	if !strings.Contains(d, "test:leak-site") || !strings.Contains(d, "test:limbo") {
		t.Fatalf("leak violation lacks site/history attribution: %s", d)
	}
	s.Free() // unpoison the pool for other tests
}

// TestFinalStopsSweep: the periodic sweep runs every checkEvery until
// Final, which runs the last one and cancels the timer, so the engine
// runs no further sweep.
func TestFinalStopsSweep(t *testing.T) {
	e, a, _ := collector(t, Config{})
	sweeps := 0
	a.Watch("probe", func() WatchState { sweeps++; return WatchState{} })
	e.RunUntil(3 * checkEvery)
	if sweeps != 3 {
		t.Fatalf("%d sweeps in 3 intervals, want 3", sweeps)
	}
	a.Final()
	e.RunUntil(e.Now() + 3*checkEvery)
	if sweeps != 4 {
		t.Fatalf("%d sweeps after Final's own, want none", sweeps-4)
	}
}

func TestDoubleFreeAttribution(t *testing.T) {
	_, a, got := collector(t, Config{})
	s := skb.NewTx(64, 0, 0)
	s.Audit(a, "test:df-site")
	s.Stage("test:df-stage")
	s.Free()
	s.Free()
	if len(*got) != 1 || (*got)[0].Kind != "double-free" {
		t.Fatalf("want one double-free violation, got %v", kinds(*got))
	}
	d := (*got)[0].Detail
	if !strings.Contains(d, "test:df-site") || !strings.Contains(d, "test:df-stage") {
		t.Fatalf("double-free lacks alloc-site/history attribution: %s", d)
	}
}

func TestStaleHandleFree(t *testing.T) {
	_, a, got := collector(t, Config{})
	s := skb.NewTx(64, 0, 0)
	s.Audit(a, "test:stale-site")
	h := s.Handle()
	s.Free()
	if h.Valid() || h.Get() != nil {
		t.Fatal("handle still valid after free")
	}
	if h.Free() {
		t.Fatal("stale handle free reported success")
	}
	if len(*got) != 1 || (*got)[0].Kind != "stale-free" {
		t.Fatalf("want one stale-free violation, got %v", kinds(*got))
	}
	if !strings.Contains((*got)[0].Detail, "test:stale-site") {
		t.Fatalf("stale-free lacks alloc-site attribution: %s", (*got)[0].Detail)
	}
}

func TestStageAfterFreeIsUseAfterFree(t *testing.T) {
	_, a, got := collector(t, Config{})
	s := skb.NewTx(64, 0, 0)
	s.Audit(a, "test:uaf")
	s.Free()
	s.Stage("test:too-late")
	if len(*got) != 1 || (*got)[0].Kind != "use-after-free" {
		t.Fatalf("want one use-after-free violation, got %v", kinds(*got))
	}
}

func TestConservationBreachNamesTerms(t *testing.T) {
	e, a, got := collector(t, Config{})
	var injected, delivered uint64
	a.Balance("pkts",
		[]Term{T("injected", func() uint64 { return injected })},
		[]Term{T("delivered", func() uint64 { return delivered })})
	// First sweep primes; matched increments stay silent.
	e.RunUntil(sim.Millisecond)
	injected, delivered = 10, 10
	e.RunUntil(2 * sim.Millisecond)
	if len(*got) != 0 {
		t.Fatalf("balanced counters violated: %v", *got)
	}
	injected = 15 // 5 packets vanish
	e.RunUntil(3 * sim.Millisecond)
	if len(*got) == 0 || (*got)[0].Kind != "conservation" {
		t.Fatalf("want conservation violation, got %v", kinds(*got))
	}
	d := (*got)[0].Detail
	if !strings.Contains(d, `balance "pkts"`) || !strings.Contains(d, "missing 5") ||
		!strings.Contains(d, "injected=") {
		t.Fatalf("conservation breach not attributed per-term: %s", d)
	}
}

// TestFirstIntervalChecked: a balance registered before Start is primed
// there, so packets that vanish before the first sweep break it at that
// sweep; priming at the first sweep would take the imbalance in as the
// baseline.
func TestFirstIntervalChecked(t *testing.T) {
	e := sim.New(1)
	var got []Violation
	a := New(e, Config{OnViolation: func(v *Violation) { got = append(got, *v) }})
	var injected, delivered uint64
	a.Balance("pkts",
		[]Term{T("injected", func() uint64 { return injected })},
		[]Term{T("delivered", func() uint64 { return delivered })})
	a.Start()
	e.At(sim.Millisecond/2, func() { injected, delivered = 8, 5 })
	e.RunUntil(sim.Millisecond)
	if len(got) != 1 || got[0].Kind != "conservation" || !strings.Contains(got[0].Detail, "missing 3") {
		t.Fatalf("want one conservation violation missing 3 at the first sweep, got %v", got)
	}
}

// TestAddLHSKeepsOtherBaselines: a term appended to a primed balance
// starts from its current value and the other terms keep their
// baselines, so a packet that vanishes in the interval the term joins
// in is still reported; re-priming the whole balance would take it in as
// the new baseline.
func TestAddLHSKeepsOtherBaselines(t *testing.T) {
	e, a, got := collector(t, Config{})
	var ledger, sockA, sockB uint64
	b := a.Balance("delivered",
		[]Term{T("sock-a", func() uint64 { return sockA })},
		[]Term{T("ledger", func() uint64 { return ledger })})
	e.RunUntil(sim.Millisecond) // primes the balance registered after Start
	ledger, sockA = 4, 4
	e.RunUntil(2 * sim.Millisecond)
	if len(*got) != 0 {
		t.Fatalf("balanced counters violated: %v", *got)
	}
	sockB = 2 // counted before it joins: part of its baseline
	b.AddLHS(T("sock-b", func() uint64 { return sockB }))
	ledger, sockB = 7, 4 // one of three deliveries is not counted
	e.RunUntil(3 * sim.Millisecond)
	if len(*got) != 1 || !strings.Contains((*got)[0].Detail, "missing -1") {
		t.Fatalf("want one violation missing -1 in the interval sock-b joined, got %v", *got)
	}
}

func TestWatchdogFiresOnStall(t *testing.T) {
	e, a, got := collector(t, Config{})
	a.Watch("core7", func() WatchState {
		return WatchState{Queued: 12, Progress: 42} // work queued, frozen progress
	})
	e.RunUntil(4 * sim.Millisecond) // armed at 1ms; window is 5ms
	if len(*got) != 0 {
		t.Fatalf("watchdog fired before the window elapsed: %v", *got)
	}
	e.RunUntil(7 * sim.Millisecond)
	if len(*got) == 0 || (*got)[0].Kind != "watchdog" {
		t.Fatalf("want watchdog violation, got %v", kinds(*got))
	}
	d := (*got)[0].Detail
	if !strings.Contains(d, "core7") || !strings.Contains(d, "12 queued") {
		t.Fatalf("watchdog violation lacks per-core state: %s", d)
	}
}

func TestWatchdogProgressAndDrainSuppress(t *testing.T) {
	e, a, got := collector(t, Config{})
	var progress uint64
	a.Watch("busy", func() WatchState {
		progress++ // advances every sweep: never hung
		return WatchState{Queued: 5, Progress: progress}
	})
	queued := 100
	a.Watch("draining", func() WatchState {
		queued-- // queue shrinking counts as progress too
		return WatchState{Queued: queued, Progress: 1}
	})
	e.RunUntil(20 * sim.Millisecond)
	if len(*got) != 0 {
		t.Fatalf("watchdog fired on units making progress: %v", *got)
	}
}

func TestWatchdogExemptsFrozenUnlessConfigured(t *testing.T) {
	e, a, got := collector(t, Config{})
	a.Watch("chaos-core", func() WatchState {
		return WatchState{Queued: 9, Progress: 1, Frozen: true}
	})
	e.RunUntil(20 * sim.Millisecond)
	if len(*got) != 0 {
		t.Fatalf("watchdog fired on a deliberately frozen core: %v", *got)
	}

	e2 := sim.New(1)
	var got2 []Violation
	a2 := New(e2, Config{WatchFrozen: true, OnViolation: func(v *Violation) { got2 = append(got2, *v) }})
	a2.Start()
	a2.Watch("chaos-core", func() WatchState {
		return WatchState{Queued: 9, Progress: 1, Frozen: true}
	})
	e2.RunUntil(20 * sim.Millisecond)
	if len(got2) == 0 || got2[0].Kind != "watchdog" {
		t.Fatalf("WatchFrozen did not include frozen cores: %v", kinds(got2))
	}
}

func TestQueueValidationCleanAndLedgerCoherence(t *testing.T) {
	e, a, got := collector(t, Config{})
	q := skb.NewQueue(8)
	a.AddQueue("test-ring", q)
	for i := 0; i < 4; i++ {
		s := skb.NewTx(64, 0, 0)
		s.Audit(a, "test:q")
		q.Enqueue(s)
	}
	e.RunUntil(2 * sim.Millisecond)
	for q.Len() > 0 {
		q.Dequeue().Free()
	}
	a.Final()
	if len(*got) != 0 {
		t.Fatalf("clean queue/ledger produced violations: %v", *got)
	}
	if a.Created() != 4 || a.LiveCount() != 0 {
		t.Fatalf("ledger miscounted: created=%d live=%d", a.Created(), a.LiveCount())
	}
}

func TestAbortPanicsWithoutCollector(t *testing.T) {
	e := sim.New(1)
	a := New(e, Config{}) // no OnViolation: violations abort
	a.Start()
	s := skb.NewTx(64, 0, 0)
	s.Audit(a, "test:abort")
	s.Free()
	defer func() {
		r := recover()
		ab, ok := r.(*Abort)
		if !ok {
			t.Fatalf("want *Abort panic, got %T (%v)", r, r)
		}
		if ab.V.Kind != "double-free" || ab.A != a {
			t.Fatalf("abort carries wrong violation/auditor: %v", ab.V)
		}
	}()
	s.Free()
}

func TestDumpHeaderRoundTrip(t *testing.T) {
	for _, info := range []RunInfo{
		{Exp: "fig10", Seed: 1, Kernel: "", Quick: true},
		{Exp: "abl-chaos", Seed: 99, Kernel: "5.4", Quick: false},
		{Exp: "abl-reconfig", Seed: 2, Quick: true, Cache: true,
			Reconfig: `{"actions":[{"kind":"drain","at_ms":1,"host":"server","to":"spare"}]}`},
		{Exp: "abl-crash", Seed: 3, Kernel: "linux-5.4", Cache: true,
			Reconfig: `{"actions":[{"kind":"crash","at_ms":2,"host":"server","to":"spare","until_ms":4}]}`},
		// Quoted values may contain spaces.
		{Exp: "abl-crash", Kernel: "linux 5.4", Reconfig: `{"actions": []}`},
	} {
		var b strings.Builder
		WriteDump(&b, info, &Violation{Kind: "leak", Detail: "x"}, nil)
		parsed, err := ParseDumpHeader(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("parse %+v: %v", info, err)
		}
		if parsed != info {
			t.Fatalf("round trip mangled RunInfo: want %+v got %+v", info, parsed)
		}
	}
	if _, err := ParseDumpHeader(strings.NewReader("not a dump\n")); err == nil {
		t.Fatal("foreign file parsed as an audit dump")
	}
	// A dump written before cache= and the schedules existed still
	// parses, with the new fields at their zero values.
	old := dumpMagic + ` exp=fig10 seed=5 kernel="5.4" quick=true` + "\n"
	if got, err := ParseDumpHeader(strings.NewReader(old)); err != nil ||
		got != (RunInfo{Exp: "fig10", Seed: 5, Kernel: "5.4", Quick: true}) {
		t.Fatalf("older dump header: got %+v, %v", got, err)
	}
	for _, bad := range []string{`exp=fig10 kernel="5.4`, `exp=fig10 seed=x`, `exp=fig10 stray`,
		`exp=fig10 kernel="5.4"x`, `exp=fig10 crash="a b`} {
		if _, err := ParseDumpHeader(strings.NewReader(dumpMagic + " " + bad + "\n")); err == nil {
			t.Fatalf("malformed header %q parsed", bad)
		}
	}
}

func TestDumpIncludesStateAndRing(t *testing.T) {
	e, a, _ := collector(t, Config{})
	s := skb.NewTx(64, 0, 0)
	s.Audit(a, "test:dump")
	s.Stage("test:stage-a")
	s.Free()
	e.RunUntil(sim.Millisecond)
	var b strings.Builder
	WriteDump(&b, RunInfo{Exp: "x", Seed: 1}, nil, a)
	out := b.String()
	for _, want := range []string{"ledger: created=1 freed=1 live=0",
		"disposed test:stage-a", "trace ring", "test:dump"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}
