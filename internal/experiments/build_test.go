package experiments

import (
	"testing"

	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/workload"
)

// buildBeds are the beds whose construction TestBuildAllocs bounds and
// BenchmarkBuild times: the mesh8 ring on a serial engine, built through
// buildMesh, the two-host single-flow testbed with Falcon on the server,
// and the two-host RX-cache bed with 64 started senders
// (buildRxCacheFlows). Each build is discarded unrun. allocs is the
// measured count per build plus 10%, the rule TestHotPathAllocs follows.
var buildBeds = []struct {
	name   string
	build  func()
	allocs float64
}{
	{"mesh8", func() { buildMesh(sim.New(1), Options{Seed: 1}) }, 544 * 1.10},
	{"falcon-2host", func() {
		newSingleFlowBed(workload.ModeFalcon, Options{Seed: 1}, 100*devices.Gbps, false)
	}, 125 * 1.10},
	{"rxcache-64flows", buildRxCacheFlows, 446 * 1.10},
}

// buildRxCacheFlows is the udp-rxcache-fixed benchmark's bed: the
// two-host testbed with the RX cache on and 64 Poisson senders over 8
// server ports, each port's first flow opening its socket and 7 clones
// sharing it. Starting a sender issues its first send, so the build
// covers each sender's first transmit too.
func buildRxCacheFlows() {
	const flows, ports = 64, 8
	tb := newBed(Options{Seed: 1, RxCache: true}, singleFlowConfig(100*devices.Gbps))
	ctr, dst := tb.ClientCtrs[0], tb.ServerCtrs[0].IP
	first := make([]*workload.UDPFlow, ports)
	for i := 0; i < flows; i++ {
		p, core, id := i%ports, 2+i%8, uint64(i+1)
		f := first[p]
		if f == nil {
			f = tb.NewUDPFlow(ctr, dst, uint16(7000+i), uint16(5001+p), 64, core, singleFlowAppCore, id)
			first[p] = f
		} else {
			f = f.Clone(core, id)
			f.SrcPort = uint16(7000 + i)
		}
		f.SendAtRate(4000, 10*sim.Millisecond)
	}
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
