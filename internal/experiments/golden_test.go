package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"falcon/internal/stats"
)

// goldenOpt is the setting every testdata golden was captured with.
var goldenOpt = Options{Quick: true, Seed: 1}

func experiment(t testing.TB, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e
}

func renderTables(tables []*stats.Table) string {
	out := ""
	for _, tbl := range tables {
		out += tbl.String() + "\n"
	}
	return out
}

// render runs an experiment with opt and renders its tables the way the
// goldens are stored. To regenerate a golden after an intended output
// change, write render(t, id, goldenOpt) to golden(t, id)'s path.
func render(t testing.TB, id string, opt Options) string {
	t.Helper()
	return renderTables(experiment(t, id).Run(opt))
}

// golden returns the committed golden for id. Every visible experiment
// must have one.
func golden(t testing.TB, id string) string {
	t.Helper()
	path := filepath.Join("testdata", "golden_"+id+"_quick_seed1.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s has no golden (render(t, %q, goldenOpt) to %s): %v", id, id, path, err)
	}
	return string(want)
}

// Audit settings for matchGolden.
const (
	plain   = false
	audited = true
)

// goldenRow names renders of experiment id that must reproduce its
// golden, captured on the serial engine with the audit off, byte for
// byte: one per entry of shards, where 0 builds the serial engine.
type goldenRow struct {
	id     string
	shards []int
}

// matchGolden renders every row with goldenOpt plus the row's shard
// count and audit setting, and compares each render with the golden.
// The calling test runs in parallel with the other golden-variant
// tests, and each render is its own parallel subtest id/shards=N.
func matchGolden(t *testing.T, audit bool, rows ...goldenRow) {
	t.Parallel()
	for _, r := range rows {
		t.Run(r.id, func(t *testing.T) {
			t.Parallel()
			want := golden(t, r.id)
			for _, shards := range r.shards {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					t.Parallel()
					opt := goldenOpt
					opt.Shards, opt.Audit = shards, audit
					if got := render(t, r.id, opt); got != want {
						t.Errorf("%s diverges from the serial, audit-off golden\n--- golden ---\n%s\n--- got ---\n%s",
							t.Name(), want, got)
					}
				})
			}
		})
	}
}

// goldenRuns holds one goldenOpt run per experiment, shared by
// TestGoldenDeterminism (bytes), TestAllExperimentsProduceTables
// (shape) and every test that reads numbers from an experiment's tables,
// so pinning every experiment costs one run each.
var goldenRuns sync.Map // id → func() []*stats.Table

func goldenTables(t testing.TB, id string) []*stats.Table {
	t.Helper()
	e := experiment(t, id)
	run, _ := goldenRuns.LoadOrStore(id, sync.OnceValue(func() []*stats.Table { return e.Run(goldenOpt) }))
	return run.(func() []*stats.Table)()
}

// goldenTable returns the table titled title from id's golden run.
func goldenTable(t testing.TB, id, title string) *stats.Table {
	t.Helper()
	for _, tbl := range goldenTables(t, id) {
		if tbl.Title == title {
			return tbl
		}
	}
	t.Fatalf("%s has no table %q", id, title)
	return nil
}

// value reads the number in column col of tbl's row row (Table.Value),
// failing the test if there is none.
func value(t testing.TB, tbl *stats.Table, col string, row ...string) float64 {
	t.Helper()
	v, err := tbl.Value(col, row...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestGoldenDeterminism pins every visible experiment's output byte for
// byte to its committed golden — every latency percentile, verdict and
// counter included. This is the determinism contract (pooled events and
// SKBs, the event heap, run-ahead slices and the flow caches must not
// change a single simulated result) and the proof obligation of every
// harness refactor. A new experiment without a golden fails here.
func TestGoldenDeterminism(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			want := golden(t, e.ID)
			if got := renderTables(goldenTables(t, e.ID)); got != want {
				t.Fatalf("%s output diverged from its golden.\n--- want ---\n%s\n--- got ---\n%s",
					e.ID, want, got)
			}
		})
	}
}

// TestAllExperimentsProduceTables checks the shape of the same runs:
// every experiment yields tables, none empty, every row exactly as wide
// as its columns.
func TestAllExperimentsProduceTables(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables := goldenTables(t, e.ID)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q empty", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("table %q row width %d != %d cols",
							tb.Title, len(row), len(tb.Columns))
					}
				}
			}
		})
	}
}

// TestParallelRunsIdentical asserts that experiments match their goldens
// when run concurrently with each other — each run owns its engine, RNG
// and pools, so concurrent execution (test shuffling, sharded workers
// inside one run) cannot perturb results. Two concurrent copies of each
// experiment are enough to expose state shared between runs: a shared
// value that one copy changes shows in the other's output, and under
// -race (CI's test job) the race detector reports any access between
// the two that happens-before does not order, whatever the copy count.
func TestParallelRunsIdentical(t *testing.T) {
	exps := []Experiment{experiment(t, "fig10"), experiment(t, "abl-chaos")}
	want := make([]string, len(exps))
	for i, e := range exps {
		want[i] = golden(t, e.ID)
	}

	const copies = 2
	var wg sync.WaitGroup
	mismatches := make(chan string, copies*len(exps))
	for range copies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, e := range exps {
				if renderTables(e.Run(goldenOpt)) != want[i] {
					mismatches <- e.ID
				}
			}
		}()
	}
	wg.Wait()
	close(mismatches)
	for id := range mismatches {
		t.Errorf("%s output changed under concurrent execution", id)
	}
}
