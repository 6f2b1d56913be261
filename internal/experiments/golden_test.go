package experiments

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// renderExperiment runs an experiment and renders its tables exactly the
// way the testdata goldens were captured: quick windows, seed 1.
func renderExperiment(t testing.TB, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	out := ""
	for _, tbl := range e.Run(Options{Quick: true, Seed: 1}) {
		out += tbl.String() + "\n"
	}
	return out
}

// TestGoldenDeterminism asserts experiment output is byte-identical to
// the committed goldens (fig10 and abl-chaos were captured before the
// scheduler/pool/cache fast path landed). This is the determinism
// contract: pooled events and SKBs, the timing wheel, and the overlay
// flow cache must not change a single simulated result. fig10 covers the steady UDP datapath; abl-chaos
// covers fault injection, retries and RNG-heavy degraded paths; mesh8
// the multi-host ring; abl-tail the open-loop heavy-tailed sweep; and
// abl-cache the RX decap fast path. Each golden pins every latency
// percentile exactly, so a tail regression fails here.
func TestGoldenDeterminism(t *testing.T) {
	for _, id := range []string{"fig10", "abl-chaos", "mesh8", "abl-tail", "abl-cache"} {
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden_"+id+"_quick_seed1.txt"))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			got := renderExperiment(t, id)
			if got != string(want) {
				t.Fatalf("%s output diverged from its golden.\n--- want ---\n%s\n--- got ---\n%s",
					id, want, got)
			}
		})
	}
}

// TestParallelRunsIdentical asserts that experiments produce identical
// output whether run alone or concurrently with others — each run owns
// its engine, RNG and pools, so concurrent execution (test shuffling,
// sharded workers inside one run) cannot perturb results.
func TestParallelRunsIdentical(t *testing.T) {
	ids := []string{"fig10", "abl-chaos"}
	sequential := make(map[string]string)
	for _, id := range ids {
		sequential[id] = renderExperiment(t, id)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(ids))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range ids {
				if got := renderExperiment(t, id); got != sequential[id] {
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
