package experiments

import (
	"testing"

	"falcon/internal/sim"
)

// BenchmarkMeshShards times one full-window mesh8 run per op at each
// shard configuration. Sharded runs also report the cluster's window
// synchronization per op: how many safe-horizon windows it cut, their
// mean width in simulated ns, cross-shard messages per window, busy
// shards per window, and the fraction of worker slots left idle.
func BenchmarkMeshShards(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{"shards=2", 2},
		{"shards=4", 4},
		{"shards=auto", ShardsAuto},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var ws sim.ClusterStats
			for i := 0; i < b.N; i++ {
				opt := Options{Seed: 1, Shards: bc.shards}
				e := meshSim(opt)
				runMesh(e, opt)
				cl, ok := e.(*sim.Cluster)
				if !ok {
					continue
				}
				s := cl.Stats()
				ws.Windows += s.Windows
				ws.WidthSum += s.WidthSum
				ws.Msgs += s.Msgs
				ws.BusySum += s.BusySum
				ws.UsedSlots += s.UsedSlots
				ws.Slots += s.Slots
			}
			if ws.Windows == 0 {
				return
			}
			w := float64(ws.Windows)
			b.ReportMetric(w/float64(b.N), "windows/op")
			b.ReportMetric(float64(ws.WidthSum)/w, "sim-ns/window")
			b.ReportMetric(float64(ws.Msgs)/w, "msgs/window")
			b.ReportMetric(float64(ws.BusySum)/w, "busy-shards")
			if ws.Slots > 0 {
				b.ReportMetric(1-float64(ws.UsedSlots)/float64(ws.Slots), "idle-frac")
			}
		})
	}
}
