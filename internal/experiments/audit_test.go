package experiments

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"falcon/internal/audit"
)

// runExpectingAbort runs a hidden selftest and returns the *audit.Abort
// it must panic with.
func runExpectingAbort(t *testing.T, id string) *audit.Abort {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("selftest %q not registered", id)
	}
	var ab *audit.Abort
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s completed without aborting — the seeded defect went undetected", id)
			}
			var isAbort bool
			ab, isAbort = r.(*audit.Abort)
			if !isAbort {
				t.Fatalf("%s panicked with %T (%v), want *audit.Abort", id, r, r)
			}
		}()
		e.Run(Options{Quick: true, Seed: 1})
	}()
	return ab
}

// TestAuditSelftestsAbortWithAttribution is the negative coverage for
// the audit subsystem: each hidden selftest seeds exactly one defect and
// the auditor must catch it with the right kind and attribution.
func TestAuditSelftestsAbortWithAttribution(t *testing.T) {
	cases := []struct {
		id, kind string
		detail   []string // substrings the violation must attribute
	}{
		{"audit-leak", "leak", []string{"selftest:leak", "selftest:limbo", "never freed"}},
		{"audit-double-free", "double-free", []string{"selftest:double-free", "selftest:used"}},
		{"audit-stall", "watchdog", []string{"server:core1", "queued", "no progress"}},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			ab := runExpectingAbort(t, tc.id)
			if ab.V.Kind != tc.kind {
				t.Fatalf("violation kind %q, want %q (%s)", ab.V.Kind, tc.kind, ab.V)
			}
			for _, want := range tc.detail {
				if !strings.Contains(ab.V.Detail, want) {
					t.Fatalf("violation not attributed (missing %q): %s", want, ab.V)
				}
			}
			if ab.A == nil {
				t.Fatal("abort carries no auditor (nothing to dump)")
			}
		})
	}
}

// TestAuditSelftestDumpReplays closes the replay loop at the experiments
// layer: the dump header written from a selftest abort parses back to a
// RunInfo that re-runs the same experiment and reproduces the violation.
func TestAuditSelftestDumpReplays(t *testing.T) {
	ab := runExpectingAbort(t, "audit-double-free")
	path := filepath.Join(t.TempDir(), "repro.dump")
	info := audit.RunInfo{Exp: "audit-double-free", Seed: 1, Quick: true}
	if err := audit.WriteDumpFile(path, info, ab.V, ab.A); err != nil {
		t.Fatalf("write dump: %v", err)
	}
	parsed, err := audit.ParseDumpFile(path)
	if err != nil {
		t.Fatalf("parse dump: %v", err)
	}
	if parsed != info {
		t.Fatalf("dump round trip mangled RunInfo: %+v -> %+v", info, parsed)
	}
	ab2 := runExpectingAbort(t, parsed.Exp)
	// Pool generations are process-global (they keep counting across
	// runs), so they are masked; everything simulation-derived — kind,
	// ledger seq, times, sites, stage history — must match exactly.
	mask := regexp.MustCompile(`gen \d+`)
	first := mask.ReplaceAllString(ab.V.Detail, "gen N")
	second := mask.ReplaceAllString(ab2.V.Detail, "gen N")
	if ab2.V.Kind != ab.V.Kind || first != second {
		t.Fatalf("replay diverged:\n first: %s\nreplay: %s", ab.V, ab2.V)
	}
}

// TestHiddenSelftestsExcludedFromAll keeps `falconsim -all` green: the
// deliberately failing selftests must stay out of the public registry
// while remaining reachable by id for -replay.
func TestHiddenSelftestsExcludedFromAll(t *testing.T) {
	for _, e := range All() {
		if strings.HasPrefix(e.ID, "audit-") {
			t.Fatalf("hidden selftest %q leaked into All()", e.ID)
		}
	}
	for _, id := range []string{"audit-leak", "audit-double-free", "audit-stall"} {
		if _, ok := ByID(id); !ok {
			t.Fatalf("selftest %q not reachable by id", id)
		}
	}
}

// TestGoldenUnchangedWithAuditEnabled is the observer-purity contract:
// full auditing (ledger, balances, watchdog, trace ring) must leave
// experiment stdout byte-identical to the audit-off goldens. fig10
// covers the steady datapath, abl-chaos the fault-injected one, and
// fig2a the 10G 64K stress whose full transmit queue takes tens of ms
// to drain after traffic stops — the end-of-run leak check must wait
// for it rather than report the frames still on the wire as leaked.
func TestGoldenUnchangedWithAuditEnabled(t *testing.T) {
	matchGolden(t, audited,
		goldenRow{"fig10", []int{0}},
		goldenRow{"abl-chaos", []int{0}},
		goldenRow{"fig2a", []int{0}},
	)
}

// TestFinishAuditWaitsForOverloadedClient finishes Fig. 15's saturated
// bed (32 containers, no Falcon) at its generators' stop time. The
// client is overloaded, so sends still queued on its cores keep
// creating SKBs after that time: the live count climbs for about 20 ms
// before it drains to zero. The end-of-run leak check must wait the
// climb out instead of reporting those SKBs as leaked.
func TestFinishAuditWaitsForOverloadedClient(t *testing.T) {
	var got []*audit.Violation
	tb := busySystemBed(goldenOpt, nil)
	a := tb.EnableAudit(audit.Config{OnViolation: func(v *audit.Violation) { got = append(got, v) }})
	runBusy(tb, goldenOpt, 32, perContainerRate)
	finishAudit(a)
	if len(got) > 0 {
		t.Fatalf("%d violations, first: %v", len(got), got[0])
	}
	if live := a.LiveCount(); live != 0 {
		t.Fatalf("%d SKBs still live after the drain", live)
	}
}
