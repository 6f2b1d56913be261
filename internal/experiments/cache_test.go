package experiments

import (
	"runtime"
	"testing"

	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/workload"
)

// TestAblCacheFloors holds abl-cache's headline to its floors: on the
// Fig. 10 16B stress the RX decap fast path cuts server softirq ns per
// packet by at least 1.30x against the vanilla overlay, at a warm hit
// rate of at least 90%. Both are simulated-time ratios, so the floors
// are exact for the seed (1.85x and 100% at seed 1).
func TestAblCacheFloors(t *testing.T) {
	tbl := goldenTables(t, "abl-cache")[0]
	vanilla := value(t, tbl, "softirq ns/pkt", "Con (vanilla)")
	cached := value(t, tbl, "softirq ns/pkt", "Con + cache")
	if improve := vanilla / cached; improve < 1.30 {
		t.Errorf("rx cache improvement %.2fx over vanilla < 1.30x floor", improve)
	}
	if hit := value(t, tbl, "hit-rate", "Con + cache"); hit < 90 {
		t.Errorf("rx cache hit rate %.1f%% < 90%% floor", hit)
	}
}

// hotPathBeds are the hot paths whose per-packet cost TestHotPathAllocs
// and TestHotPathEvents bound: the full-window Falcon stress with 1500B
// packets, the quick 16B stress through the RX cache's hit leg, a quick
// Poisson-paced single flow through the RX cache, the quick abl-tail
// open-loop population of short Pareto-sized flows at 160 Kpps, and the
// quick mesh8 ring on a 4-shard, 1-worker cluster, whose frames cross
// shards through the cluster's inbox slots. Every generator paces its
// sends through its own slot of the engine group, and a machine's timer
// tick is a slot too, set only while something subscribes to it (Falcon
// does), so four beds fire no heap event at all. con-openloop's two are
// runTailPoint's samples of the sent count at the window's start and
// end. Each bound is the measured figure plus 10%.
var hotPathBeds = []hotPathBed{
	{"falcon-1500B-full", workload.ModeFalcon, Options{Seed: 1}, 1500, false, 0, 0, 0, 0.6417 * 1.10, 0, 94.7703 * 1.10},
	{"con-cache-16B-quick", workload.ModeCon, Options{Quick: true, Seed: 1}, 16, true, 0, 0, 0, 0.8106 * 1.10, 0, 65.2967 * 1.10},
	{"con-cache-poisson-64B-quick", workload.ModeCon, Options{Quick: true, Seed: 1}, 64, true, 100_000, 0, 0, 0.3635 * 1.10, 0, 35.8616 * 1.10},
	{"con-openloop-quick", workload.ModeCon, Options{Quick: true, Seed: 1}, tailPayload, false, 0, 160_000, 0, 0.6692 * 1.10, 0.001183 * 1.10, 46.0450 * 1.10},
	{"mesh8-4shards-quick", workload.ModeCon, Options{Quick: true, Seed: 1}, meshPayload, false, 0, 0, 4, 0.2314 * 1.10, 0, 52.9313 * 1.10},
}

type hotPathBed struct {
	name     string
	mode     workload.Mode
	opt      Options
	size     int
	cache    bool
	pps      float64 // SendAtRate's Poisson rate; 0 for the 3-client flood
	offered  float64 // runTailPoint's open-loop rate in packets/s; 0 for the other beds
	shards   int     // mesh8 on a cluster of this many shards and 1 worker; 0 for the single-flow beds
	allocs   float64 // heap allocations per delivered packet
	events   float64 // heap events fired per delivered packet
	executed float64 // heap events fired plus slots run per delivered packet
}

// run runs the bed: the mesh ring through runMesh, an open-loop
// population through runTailPoint, the flood through cacheStress, a
// paced flow through udpFixedRateBed.
func (b hotPathBed) run() cacheRun {
	if b.shards > 0 {
		c := sim.NewCluster(b.opt.seed(), b.shards, 1)
		var res workload.Result
		for _, n := range runMesh(c, b.opt) {
			res.Delivered += n.sock.Delivered.Value() - n.delivered0
		}
		return cacheRun{res: res, fired: c.Fired(), inlined: c.Inlined()}
	}
	if b.offered > 0 {
		tb, pt := runTailPoint(b.mode, b.opt, b.offered)
		return cacheRun{res: pt.res, fired: tb.E.Fired(), inlined: tb.E.Inlined()}
	}
	if b.pps == 0 {
		return cacheStress(b.mode, b.opt, b.size, b.cache)
	}
	o := b.opt
	o.RxCache = b.cache
	tb, res := udpFixedRateBed(b.mode, o, 100*devices.Gbps, b.size, b.pps)
	return cacheRun{res: res, fired: tb.E.Fired(), inlined: tb.E.Inlined()}
}

// TestHotPathAllocs bounds the simulator's heap allocations per
// delivered packet on the hot path beds. The count is the process-wide
// malloc delta, so this test must stay sequential: parallel top-level
// tests only start once the sequential ones have finished.
func TestHotPathAllocs(t *testing.T) {
	for _, tc := range hotPathBeds {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r := tc.run()
			runtime.ReadMemStats(&m1)
			if r.res.Delivered == 0 {
				t.Fatal("no packets delivered")
			}
			per := float64(m1.Mallocs-m0.Mallocs) / float64(r.res.Delivered)
			t.Logf("%.4f allocs/pkt over %d packets (limit %.4f)", per, r.res.Delivered, tc.allocs)
			if per > tc.allocs {
				t.Errorf("%.4f allocs/pkt > %.4f (measured baseline +10%%)", per, tc.allocs)
			}
		})
	}
}

// TestHotPathEvents bounds the heap events fired per delivered packet,
// over the whole run, on the hot path beds, so a change that moves work
// out of the engine's slot group (CPU slices, link arrivals, moderated
// interrupts, generator sends and cross-shard deliveries) into heap
// events fails here and not only in the benchmark. It bounds the heap
// events and slot runs together too, so work moved into slots stays
// bounded. Both counts are deterministic for the seed.
func TestHotPathEvents(t *testing.T) {
	for _, tc := range hotPathBeds {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.run()
			if r.res.Delivered == 0 {
				t.Fatal("no packets delivered")
			}
			per := float64(r.fired) / float64(r.res.Delivered)
			t.Logf("%.6f events/pkt over %d packets (limit %.6f)", per, r.res.Delivered, tc.events)
			if per > tc.events {
				t.Errorf("%.6f events/pkt > %.6f (measured baseline +10%%)", per, tc.events)
			}
			executed := float64(r.fired+r.inlined) / float64(r.res.Delivered)
			t.Logf("%.4f fired+inlined/pkt (limit %.4f)", executed, tc.executed)
			if executed > tc.executed {
				t.Errorf("%.4f fired+inlined/pkt > %.4f (measured baseline +10%%)", executed, tc.executed)
			}
		})
	}
}
