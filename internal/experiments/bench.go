package experiments

import (
	"runtime"
	"time"

	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/workload"
)

// HotPathBench is the measured cost of the simulator's packet hot path,
// taken from one full-window Fig. 10-style overlay UDP stress run. It is
// what `falconsim -bench-report` writes into BENCH_sim.json and what CI
// guards against allocation regressions.
type HotPathBench struct {
	// WallSeconds is host wall-clock time for the run.
	WallSeconds float64 `json:"wall_seconds"`
	// Events is the number of simulation events fired; EventsPerSec is
	// the engine's dispatch throughput. Inlined counts the CPU slices a
	// machine's completion group (sim.Group) ran inside another event:
	// work the engine did without firing an event for it, so not part of
	// EventsPerSec.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Inlined      uint64  `json:"inlined"`
	// Packets is the number of packets the server application consumed
	// during the measured window.
	Packets uint64 `json:"packets"`
	// NsPerPacket and AllocsPerPacket are host-side costs of simulating
	// one delivered packet end to end (tx stack → wire → rx stack → app).
	NsPerPacket     float64 `json:"ns_per_packet"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	BytesPerPacket  float64 `json:"bytes_per_packet"`
}

// BenchHotPath runs the overlay (Falcon-enabled) single-flow UDP stress
// with full measurement windows and reports hot-path costs. Allocation
// counts are process-wide malloc deltas, so callers should run it in a
// quiet process for stable numbers.
func BenchHotPath(opt Options) HotPathBench {
	opt.Quick = false
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()

	tb := newSingleFlowBed(workload.ModeFalcon, opt, 100*devices.Gbps, false)
	until := opt.warmup() + opt.window() + 5*sim.Millisecond
	sock, _ := tb.StressFlood(true, 3, 1500, singleFlowAppCore, until)
	res := workload.MeasureWindow(tb, []*socket.Socket{sock}, opt.warmup(), opt.window())

	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	events := tb.E.Fired()
	packets := res.Delivered
	if packets == 0 {
		packets = 1
	}
	return HotPathBench{
		WallSeconds:     wall,
		Events:          events,
		EventsPerSec:    float64(events) / wall,
		Inlined:         tb.E.Inlined(),
		Packets:         packets,
		NsPerPacket:     wall * 1e9 / float64(packets),
		AllocsPerPacket: float64(m1.Mallocs-m0.Mallocs) / float64(packets),
		BytesPerPacket:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(packets),
	}
}
