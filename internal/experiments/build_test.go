package experiments

import (
	"testing"

	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/workload"
)

// buildBeds are the beds whose construction TestBuildAllocs bounds and
// BenchmarkBuild times: the mesh8 ring on a serial engine, built through
// buildMesh, and the two-host single-flow testbed with Falcon on the
// server. Each build is discarded unrun. allocs is the measured count
// per build plus 10%, the rule TestHotPathAllocs follows.
var buildBeds = []struct {
	name   string
	build  func()
	allocs float64
}{
	{"mesh8", func() { buildMesh(sim.New(1), Options{Seed: 1}) }, 704 * 1.10},
	{"falcon-2host", func() {
		newSingleFlowBed(workload.ModeFalcon, Options{Seed: 1}, 100*devices.Gbps, false)
	}, 175 * 1.10},
}

// TestBuildAllocs bounds the heap allocations of one bed build, so a
// construction regression fails here deterministically instead of
// hiding in the benchmark's setup time.
func TestBuildAllocs(t *testing.T) {
	for _, bc := range buildBeds {
		t.Run(bc.name, func(t *testing.T) {
			got := testing.AllocsPerRun(5, bc.build)
			t.Logf("%.0f allocs/build (limit %.0f)", got, bc.allocs)
			if got > bc.allocs {
				t.Errorf("%.0f allocs/build > %.0f (measured baseline +10%%)", got, bc.allocs)
			}
		})
	}
}

// BenchmarkBuild times one bed build per op; run it with -benchmem
// (make bench-build does) for B/op and allocs/op.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range buildBeds {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.build()
			}
		})
	}
}
