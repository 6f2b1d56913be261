package experiments

import (
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
// inside one run) cannot perturb results.
func TestParallelRunsIdentical(t *testing.T) {
	ids := []string{"fig10", "abl-chaos"}
	want := make(map[string]string)
	for _, id := range ids {
		want[id] = golden(t, id)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(ids))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range ids {
				if got := render(t, id, goldenOpt); got != want[id] {
					errs <- id
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for id := range errs {
		t.Errorf("%s output changed under concurrent execution", id)
	}
}
