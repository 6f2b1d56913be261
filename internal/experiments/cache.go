package experiments

import (
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// abl-cache: the flow-caching ablation. Falcon attacks the overlay tax
// with parallelism (spread the serialized softirq stages over FALCON_CPUS);
// an ONCache-style RX decap fast path attacks it with caching (skip the
// stages entirely for warm flows). This experiment runs both, alone and
// combined, on the paper's Fig. 10 small-packet UDP stress and on the
// 8-host mesh, so the two approaches — and their composition — can be
// compared on equal footing.

func init() {
	register("abl-cache", "Ablation: RX flow caching vs Falcon vs both", ablCache)
}

// cacheRun is one measured abl-cache configuration.
type cacheRun struct {
	res                 workload.Result
	hits, misses, stale uint64
	fired               uint64 // heap events fired over the whole run
	inlined             uint64 // slots run over the whole run
}

// hitRate is the warm-window fast-path hit fraction on the server.
func (r cacheRun) hitRate() float64 {
	total := r.hits + r.misses + r.stale
	if total == 0 {
		return 0
	}
	return float64(r.hits) / float64(total)
}

// softirqNsPerPkt charges every server softirq-context nanosecond of the
// window to the delivered packets — the per-packet cost the decap fast
// path is supposed to shrink.
func (r cacheRun) softirqNsPerPkt() float64 {
	if r.res.Delivered == 0 {
		return 0
	}
	var softirq float64
	for _, u := range r.res.CoreSoftirq {
		softirq += u
	}
	return softirq * float64(r.res.Window) / float64(r.res.Delivered)
}

// cacheStress runs the Fig. 10 3-client UDP stress with the requested
// datapath configuration and keeps the server's cache counts over the
// measured window.
func cacheStress(mode workload.Mode, opt Options, size int, cache bool) cacheRun {
	o := opt
	o.RxCache = cache
	tb := newSingleFlowBed(mode, o, 100*devices.Gbps, false)
	until := o.warmup() + o.window() + 5*sim.Millisecond
	sock, _ := tb.StressFlood(true, 3, size, singleFlowAppCore, until)
	srv := tb.Server
	tb.Run(o.warmup())
	hits, misses, stale := srv.RxCacheHits.Value(), srv.RxCacheMisses.Value(), srv.RxCacheStale.Value()
	res := workload.MeasureWindow(tb, []*socket.Socket{sock}, o.warmup(), o.window())
	return cacheRun{
		res:     res,
		hits:    srv.RxCacheHits.Value() - hits,
		misses:  srv.RxCacheMisses.Value() - misses,
		stale:   srv.RxCacheStale.Value() - stale,
		fired:   tb.E.Fired(),
		inlined: tb.E.Inlined(),
	}
}

// runMeshCache drives the mesh8 ring with the cache on or off and
// aggregates delivery, tail latency and cache counters over all hosts.
func runMeshCache(opt Options, cache bool) (float64, stats.Summary, uint64, uint64) {
	o := opt
	o.RxCache = cache
	nodes := runMesh(meshSim(o, meshHosts), o, meshHosts)

	var delivered, hits, misses uint64
	agg := stats.NewHistogram()
	for _, n := range nodes {
		delivered += n.sock.Delivered.Value() - n.delivered0
		agg.Merge(n.sock.Latency)
		hits += n.host.RxCacheHits.Value() - n.hits0
		misses += n.host.RxCacheMisses.Value() + n.host.RxCacheStale.Value() - n.misses0
	}
	return stats.Rate(delivered, int64(o.window())), agg.Summarize(), hits, misses
}

// ablCache emits the two comparison tables.
func ablCache(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Ablation: RX flow cache vs Falcon, 16B UDP stress (100G)",
		Columns: []string{"configuration", "delivered(Kpps)", "softirq ns/pkt", "vs vanilla", "hit-rate", "stale"},
	}
	configs := []struct {
		label string
		mode  workload.Mode
		cache bool
	}{
		{"Con (vanilla)", workload.ModeCon, false},
		{"Con + cache", workload.ModeCon, true},
		{"Falcon", workload.ModeFalcon, false},
		{"Falcon + cache", workload.ModeFalcon, true},
	}
	var vanillaNs float64
	for i, c := range configs {
		r := cacheStress(c.mode, opt, 16, c.cache)
		ns := r.softirqNsPerPkt()
		if i == 0 {
			vanillaNs = ns
		}
		improve := fRatio(1)
		if i > 0 && ns > 0 {
			improve = fRatio(vanillaNs / ns)
		}
		hit := stats.Text("-")
		if c.cache {
			hit = fPct(r.hitRate())
		}
		t.AddRow(stats.Text(c.label), fKpps(r.res.PPS), stats.Num("%.0f", ns), improve,
			hit, fCount(r.stale))
	}

	m := &stats.Table{
		Title:   "Ablation: RX flow cache on the 8-host mesh (256B ring)",
		Columns: []string{"configuration", "delivered(Kpps)", "p50(us)", "p99(us)", "hit-rate"},
	}
	offPPS, offSum, _, _ := runMeshCache(opt, false)
	m.AddRow(stats.Text("mesh8"), fKpps(offPPS), fUs(offSum.P50), fUs(offSum.P99), stats.Text("-"))
	onPPS, onSum, hits, misses := runMeshCache(opt, true)
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	m.AddRow(stats.Text("mesh8 + cache"), fKpps(onPPS), fUs(onSum.P50), fUs(onSum.P99), fPct(hitRate))
	return []*stats.Table{t, m}
}
