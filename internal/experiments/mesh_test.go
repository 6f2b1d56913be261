package experiments

import (
	"fmt"
	"testing"

	"falcon/internal/sim"
)

// BenchmarkMeshShards times one quick-window run of the mesh ring per op,
// built the way mesh8 builds it, at 8, 16, 32 and 64 hosts on three
// layouts: the serial engine, 4 LPs, and one LP per host (the layout
// -shards auto picks). Every run reports passes/set, the set slots the
// slot group's sorted insert steps past per set (Engine.SlotPasses), the
// per-engine list a sharded run splits. Sharded runs also report the
// cluster's window synchronization per op: how many safe-horizon
// windows it cut, their mean width in simulated ns, cross-shard
// messages per window and busy shards per window.
func BenchmarkMeshShards(b *testing.B) {
	for _, hosts := range []int{8, 16, 32, 64} {
		for _, l := range []struct {
			name   string
			shards int
		}{
			{"serial", 1},
			{"lps=4", 4},
			{"lps=hosts", hosts},
		} {
			b.Run(fmt.Sprintf("hosts=%d/%s", hosts, l.name), func(b *testing.B) {
				var ws sim.ClusterStats
				var passes, sets uint64
				for i := 0; i < b.N; i++ {
					opt := Options{Seed: 1, Quick: true, Shards: l.shards}
					e := meshSim(opt, hosts)
					runMesh(e, opt, hosts)
					var p, s uint64
					switch e := e.(type) {
					case *sim.Engine:
						p, s = e.SlotPasses()
					case *sim.Cluster:
						p, s = e.SlotPasses()
						cs := e.Stats()
						ws.Windows += cs.Windows
						ws.WidthSum += cs.WidthSum
						ws.Msgs += cs.Msgs
						ws.BusySum += cs.BusySum
					}
					passes, sets = passes+p, sets+s
				}
				if sets > 0 {
					b.ReportMetric(float64(passes)/float64(sets), "passes/set")
				}
				if ws.Windows == 0 {
					return
				}
				w := float64(ws.Windows)
				b.ReportMetric(w/float64(b.N), "windows/op")
				b.ReportMetric(float64(ws.WidthSum)/w, "sim-ns/window")
				b.ReportMetric(float64(ws.Msgs)/w, "msgs/window")
				b.ReportMetric(float64(ws.BusySum)/w, "busy-shards")
			})
		}
	}
}

// TestMeshShardsWindows pins the window count of the quick 8-host ring
// BenchmarkMeshShards times, at 4 LPs and at one LP per host: every
// window is [tLP, tLP+L-1] with L the 20 µs link lookahead, so both
// layouts cut the same 749. A change that adds barriers fails here
// rather than showing up only as a slower benchmark.
func TestMeshShardsWindows(t *testing.T) {
	const hosts = 8
	for _, shards := range []int{4, hosts} {
		opt := Options{Seed: 1, Quick: true, Shards: shards}
		e := meshSim(opt, hosts)
		runMesh(e, opt, hosts)
		if got := e.(*sim.Cluster).Stats().Windows; got != 749 {
			t.Errorf("%d LPs: %d windows, want 749", shards, got)
		}
	}
}
