package scenario

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"falcon/internal/core"
)

// dropLastCPU is the seeded steering defect from falconsim's
// -fuzz-defect drop-falcon-cpu: the placement mask silently loses its
// last CPU (a 1-CPU mask then divides by zero in the hash modulo).
func dropLastCPU(cpus []int) []int { return cpus[:len(cpus)-1] }

func withDefect(t *testing.T, f func()) {
	t.Helper()
	core.SeedPlacementDefect(dropLastCPU)
	defer core.SeedPlacementDefect(nil)
	f()
}

// TestSeededDefectCaughtByDeterminism: with the defect installed, a
// single-CPU Falcon scenario panics on the placement hot path; the
// oracle runner must convert that into a violation, not a crashed
// campaign — and the same scenario must pass once the defect is cleared.
func TestSeededDefectCaughtByDeterminism(t *testing.T) {
	sc := valid()
	sc.FalconCPUs = []int{3}
	sc.WindowMs = 2
	det, _ := ByName([]string{"determinism"})

	withDefect(t, func() {
		v := CheckOracle(det[0], NewCtx(sc))
		if v == nil {
			t.Fatal("seeded defect not caught")
		}
		if !strings.Contains(v.Detail, "panic") {
			t.Fatalf("violation did not capture the panic: %s", v.Detail)
		}
	})
	if v := CheckOracle(det[0], NewCtx(sc)); v != nil {
		t.Fatalf("defect hook not cleared: %s", v)
	}
}

// TestSeededDefectShrinks: the shrinker must walk a bigger failing
// scenario down while the violation keeps reproducing, and end on a
// valid, no-larger configuration that still fails.
func TestSeededDefectShrinks(t *testing.T) {
	sc := valid()
	sc.FalconCPUs = []int{3}
	sc.Containers = 2
	sc.WindowMs = 6
	sc.TwoChoice = true
	sc.Flows = append(sc.Flows, FlowSpec{Proto: "udp", Size: 512, RatePPS: 30000, Ctr: 2, SendCore: 3})

	withDefect(t, func() {
		min, checks := Shrink(sc, "determinism", 30)
		if checks == 0 {
			t.Fatal("shrink did not run")
		}
		if err := min.Validate(); err != nil {
			t.Fatalf("shrunk scenario invalid: %v", err)
		}
		if len(min.Flows) > len(sc.Flows) || min.WindowMs > sc.WindowMs ||
			min.Cores > sc.Cores || min.Containers > sc.Containers {
			t.Fatalf("shrink grew the scenario: %+v", min)
		}
		if reflect.DeepEqual(min, sc) {
			t.Fatalf("shrink made no progress on a 30-check budget: %+v", min)
		}
		det, _ := ByName([]string{"determinism"})
		if CheckOracle(det[0], NewCtx(min)) == nil {
			t.Fatal("shrunk scenario no longer reproduces the defect")
		}
	})
}

// TestFuzzFindsSeededDefect mirrors the CI acceptance gate at unit-test
// scale: a short campaign over the standard seed sequence must land on
// the seeded defect and emit a loadable reproducer that pins the
// violated oracle.
func TestFuzzFindsSeededDefect(t *testing.T) {
	dir := t.TempDir()
	withDefect(t, func() {
		failures, err := Fuzz(FuzzOptions{
			Seeds: 12, Workers: 4, ReproDir: dir,
			ExtraArgs: "-fuzz-defect drop-falcon-cpu",
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(failures) == 0 {
			t.Fatal("12 seeds found nothing with the defect installed")
		}
		f := failures[0]
		if f.ReproPath == "" {
			t.Fatal("finding has no reproducer path")
		}
		if _, err := os.Stat(f.ReproPath); err != nil {
			t.Fatal(err)
		}
		sc, pinned, err := LoadFile(f.ReproPath)
		if err != nil {
			t.Fatalf("reproducer unloadable: %v", err)
		}
		if len(pinned) != 1 || pinned[0] != f.Violation.Oracle {
			t.Fatalf("reproducer pins %v, want [%s]", pinned, f.Violation.Oracle)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("reproducer scenario invalid: %v", err)
		}
	})
}

// TestFuzzCleanSmoke: without any defect, the first seeds of the
// standard sequence must come back clean (the full 50-seed battery runs
// in CI).
func TestFuzzCleanSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	failures, err := Fuzz(FuzzOptions{Seeds: 2, Workers: 2, ReproDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Errorf("seed %d: %s", f.Seed, f.Violation)
	}
}
