package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"falcon/internal/sim"
	"falcon/internal/stats"
)

// perLayer lists the traced pass's metrics, named <layer>.<metric> after
// the repo's modules. bench/README.md maps each to the end-to-end metric
// and workload it should move.
var perLayer = func() []metricSpec {
	// Host wall time per delivered packet: the whole program's cost, which
	// the .self_ns_per_pkt metrics split by module.
	specs := []metricSpec{{"wall_ns_per_pkt", "ns/pkt"}}
	layer := func(name string, extra ...metricSpec) {
		specs = append(specs, metricSpec{name + ".self_ns_per_pkt", "ns/pkt"})
		specs = append(specs, extra...)
	}
	layer("sim",
		metricSpec{"sim.cluster_self_ns_per_pkt", "ns/pkt"},
		metricSpec{"sim.cluster_windows_per_sim_ms", "1/ms"},
		metricSpec{"sim.cluster_msgs_per_window", "msgs/window"},
		metricSpec{"sim.cluster_idle_frac", "frac"},
		metricSpec{"sim.cluster_speedup_vs_serial", "x"})
	layer("cpu",
		metricSpec{"cpu.max_core_busy", "frac"},
		metricSpec{"cpu.netrx_per_pkt", "1/pkt"},
		metricSpec{"cpu.res_ipi_per_pkt", "1/pkt"},
		metricSpec{"cpu.hardirq_per_pkt", "1/pkt"})
	layer("netdev",
		metricSpec{"netdev.backlog_drops_per_kpkt", "1/kpkt"},
		metricSpec{"netdev.backlog_depth_p99", "pkts"})
	layer("devices",
		metricSpec{"devices.nic_drops_per_kpkt", "1/kpkt"},
		metricSpec{"devices.nic_ring_depth_p99", "pkts"},
		metricSpec{"devices.gro_merge_ratio", "frac"},
		metricSpec{"devices.inner_gro_merge_ratio", "frac"})
	layer("core",
		metricSpec{"core.first_stage_share", "frac"},
		metricSpec{"core.second_stage_share", "frac"},
		metricSpec{"core.gated_share", "frac"})
	layer("overlay",
		metricSpec{"overlay.rx_cache_hit_ratio", "frac"},
		metricSpec{"overlay.kv_retries_per_kpkt", "1/kpkt"},
		metricSpec{"overlay.tx_resolve_drops_per_kpkt", "1/kpkt"})
	for _, l := range []string{"proto", "gro", "skb", "costmodel", "stats", "steering", "trace"} {
		layer(l)
	}
	layer("socket",
		metricSpec{"socket.drops_per_kpkt", "1/kpkt"},
		metricSpec{"socket.queue_depth_p99", "pkts"})
	layer("transport",
		metricSpec{"transport.retransmits_per_kpkt", "1/kpkt"},
		metricSpec{"transport.acks_per_seg", "1/seg"})
	layer("workload",
		metricSpec{"workload.flows_started_per_sim_ms", "1/ms"},
		metricSpec{"workload.peak_live_flows", "flows"})
	specs = append(specs,
		metricSpec{"runtime.allocs_per_pkt", "allocs/pkt"},
		metricSpec{"runtime.heap_inuse_mb", "MB"},
		metricSpec{"runtime.gc_ns_per_pkt", "ns/pkt"},
		metricSpec{"runtime.alloc_ns_per_pkt", "ns/pkt"},
		metricSpec{"runtime.copy_ns_per_pkt", "ns/pkt"},
		metricSpec{"runtime.bytes_per_pkt", "B/pkt"},
		metricSpec{"runtime.gc_cycles_per_mpkt", "1/Mpkt"},
		metricSpec{"runtime.cpu_ns_per_pkt", "ns/pkt"})
	for _, s := range stageNames {
		specs = append(specs,
			metricSpec{"stage." + s + ".p50_ns", "ns"},
			metricSpec{"stage." + s + ".p99_ns", "ns"})
	}
	layer("bench", metricSpec{"bench.trace_overhead_pct", "%"})
	return specs
}()

// minCoverage is the share of profiled CPU time the layer buckets must
// account for, checked once the profile holds minProfiled of CPU time
// (100 samples at runtime/pprof's 100 Hz).
const (
	minCoverage = 0.90
	minProfiled = int64(time.Second)
)

// traced is the per-layer run: a warm-up repetition, untraced
// repetitions for half the budget (the overhead reference and the
// runtime counters), then traced repetitions for the other half. A
// sharded workload also runs one serial reference repetition.
func traced(w *workload, seed uint64, window sim.Time, budget time.Duration, out io.Writer) result {
	o := repOpts{window: window}
	warm := runRep(w, seed, o)
	plain := repsFor(w, seed, o, budget/2, 2)
	o.traced = true
	tr := repsFor(w, seed, o, budget/2, 1)
	res := checkReps(out, w, append(append([]rep{warm}, plain...), tr...))

	var serial *rep
	if plain[0].win.v[cSlots] > 0 {
		s := runRep(w, seed, repOpts{window: window, serial: true})
		serial = &s
		res.attempted += s.ledger.sent
		err := s.err
		if err == nil && (s.win.v[cDelivered] != plain[0].win.v[cDelivered] || s.lat != plain[0].lat) {
			err = fmt.Errorf("serial engine delivered %d packets (latency %+v), sharded %d (%+v)",
				s.win.v[cDelivered], s.lat, plain[0].win.v[cDelivered], plain[0].lat)
		}
		if err != nil {
			res.correct = false
			res.failed += s.ledger.sent
			fmt.Fprintf(out, "CHECK FAILED %s serial reference: %v\n", w.name, err)
		}
	}

	vals, cov, err := layerMetrics(window, plain, tr, serial)
	if err != nil {
		res.correct = false
		fmt.Fprintf(out, "CHECK FAILED %s traced pass: %v\n", w.name, err)
	}
	res.specs, res.values = perLayer, vals
	fmt.Fprintf(out, "workload %s seed %d: traced pass, %d untraced and %d traced repetitions of %v simulated; profile coverage %.1f%%\n",
		w.name, seed, len(plain), len(tr), window, 100*cov)
	for _, m := range perLayer {
		fmt.Fprintf(out, "%-36s %14.6g  %s\n", m.name, vals[m.name], m.unit)
	}
	return res
}

// layerMetrics computes every per-layer metric. Profile-derived values
// pool all traced repetitions; counter-derived ones come from the first
// (all repetitions of a seed simulate the same thing); runtime counters
// come from the untraced repetitions, which carry no tracer allocations.
func layerMetrics(window sim.Time, plain, traced []rep, serial *rep) (map[string]float64, float64, error) {
	m := map[string]float64{}
	t := traced[0]
	d := &t.win.v
	pkts := float64(max(d[cDelivered], 1))
	per := func(x uint64) float64 { return float64(x) / pkts }
	perK := func(x uint64) float64 { return 1000 * per(x) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ms := window.Seconds() * 1e3

	var att attribution
	var tracedPkts float64
	var err error
	for _, r := range traced {
		samples, perr := parseProfile(r.profile)
		if perr != nil {
			err = perr
			continue
		}
		att.add(attribute(samples))
		tracedPkts += float64(max(r.win.v[cDelivered], 1))
	}
	if cov := att.coverage(); err == nil && att.total >= minProfiled && cov < minCoverage {
		err = fmt.Errorf("profile layers cover %.1f%% of CPU time, below %.0f%%", 100*cov, 100*minCoverage)
	}
	profNs := func(ns int64) float64 { return float64(ns) / max(tracedPkts, 1) }
	for _, s := range perLayer {
		if layer, ok := strings.CutSuffix(s.name, ".self_ns_per_pkt"); ok {
			m[s.name] = profNs(att.self[layer])
		}
	}
	m["sim.cluster_self_ns_per_pkt"] = profNs(att.self["sim.cluster"])
	m["runtime.gc_ns_per_pkt"] = profNs(att.gc)
	m["runtime.alloc_ns_per_pkt"] = profNs(att.alloc)
	m["runtime.copy_ns_per_pkt"] = profNs(att.copy)

	m["sim.cluster_windows_per_sim_ms"] = float64(d[cWindows]) / ms
	m["sim.cluster_msgs_per_window"] = ratio(d[cWindowMsgs], d[cWindows])
	m["sim.cluster_idle_frac"] = 0
	if d[cSlots] > 0 {
		m["sim.cluster_idle_frac"] = 1 - ratio(d[cUsedSlots], d[cSlots])
	}
	plainMedian := func(get func(rep) float64) float64 {
		xs := make([]float64, len(plain))
		for i, r := range plain {
			xs[i] = get(r)
		}
		return median(xs)
	}
	m["sim.cluster_speedup_vs_serial"] = 0
	if serial != nil {
		m["sim.cluster_speedup_vs_serial"] = wallPerPkt(*serial) / plainMedian(wallPerPkt)
	}

	var busiest int64
	for _, b := range t.win.busy {
		busiest = max(busiest, b)
	}
	m["cpu.max_core_busy"] = float64(busiest) / float64(window)
	m["cpu.netrx_per_pkt"] = per(d[cNetRX])
	m["cpu.res_ipi_per_pkt"] = per(d[cRES])
	m["cpu.hardirq_per_pkt"] = per(d[cHardIRQ])

	p99 := func(h *stats.Histogram) float64 { return float64(h.Quantile(0.99)) }
	m["netdev.backlog_drops_per_kpkt"] = perK(d[cBacklogDrops])
	m["netdev.backlog_depth_p99"] = p99(t.tr.depth(func(s *depthSampler) *stats.Histogram { return s.backlog }))
	m["devices.nic_drops_per_kpkt"] = perK(d[cNICDrops])
	m["devices.nic_ring_depth_p99"] = p99(t.tr.depth(func(s *depthSampler) *stats.Histogram { return s.ring }))
	m["devices.gro_merge_ratio"] = ratio(d[cGROMerged], d[cLinkSent]-d[cLinkLost])
	m["devices.inner_gro_merge_ratio"] = ratio(d[cInnerMerged], d[cDecapped])

	placed := d[cFalconFirst] + d[cFalconSecond] + d[cFalconGated]
	m["core.first_stage_share"] = ratio(d[cFalconFirst], placed)
	m["core.second_stage_share"] = ratio(d[cFalconSecond], placed)
	m["core.gated_share"] = ratio(d[cFalconGated], placed)

	m["overlay.rx_cache_hit_ratio"] = ratio(d[cCacheHits], d[cCacheProbes])
	m["overlay.kv_retries_per_kpkt"] = perK(d[cKVRetries])
	m["overlay.tx_resolve_drops_per_kpkt"] = perK(d[cResolveDrops])

	m["socket.drops_per_kpkt"] = perK(d[cSockDrops])
	m["socket.queue_depth_p99"] = p99(t.tr.depth(func(s *depthSampler) *stats.Histogram { return s.sock }))

	m["transport.retransmits_per_kpkt"] = perK(d[cRetransmits])
	m["transport.acks_per_seg"] = ratio(d[cAcksSent], d[cSegsDelivered])

	m["workload.flows_started_per_sim_ms"] = float64(d[cFlowsStarted]) / ms
	m["workload.peak_live_flows"] = float64(t.peakFlows)

	m["runtime.allocs_per_pkt"] = plainMedian(allocsPerPkt)
	m["runtime.heap_inuse_mb"] = plainMedian(heapMB)
	m["runtime.bytes_per_pkt"] = plainMedian(func(r rep) float64 {
		return float64(r.allocBytes) / float64(max(r.win.v[cDelivered], 1))
	})
	m["runtime.gc_cycles_per_mpkt"] = plainMedian(func(r rep) float64 {
		return 1e6 * float64(r.gcs) / float64(max(r.win.v[cDelivered], 1))
	})
	m["runtime.cpu_ns_per_pkt"] = plainMedian(func(r rep) float64 {
		return float64(r.cpu) / float64(max(r.win.v[cDelivered], 1))
	})

	for _, s := range stageNames {
		h := t.tr.stage(s)
		m["stage."+s+".p50_ns"] = float64(h.Quantile(0.50))
		m["stage."+s+".p99_ns"] = float64(h.Quantile(0.99))
	}

	m["wall_ns_per_pkt"] = plainMedian(wallPerPkt)

	tracedWall := make([]float64, len(traced))
	for i, r := range traced {
		tracedWall[i] = wallPerPkt(r)
	}
	m["bench.trace_overhead_pct"] = 100 * (median(tracedWall)/plainMedian(wallPerPkt) - 1)
	return m, att.coverage(), err
}
