package core

import (
	"falcon/internal/costmodel"
	"falcon/internal/sim"
)

// Dynamic softirq splitting — the extension the paper leaves as future
// work (Section 6.4): the static GRO split must be chosen offline and
// "certain workloads may experience suboptimal performance under GRO
// splitting" when it does not apply. This implementation toggles the
// split at runtime from the same signals the paper's offline profiling
// used: the NAPI core's load and the share of its cycles spent in the
// split candidates (skb_allocation + napi_gro_receive, Fig. 9a).
//
// The controller samples per-core function time deltas on every load
// tick and applies hysteresis so the split does not flap: it engages
// when a watched core is saturated and the candidates dominate it, and
// disengages when the core has clear headroom.

// Dynamic-split thresholds.
const (
	// dynSplitOnLoad engages splitting when a NAPI core's load exceeds
	// this while the split candidates dominate its cycles.
	dynSplitOnLoad = 0.92
	// dynSplitOffLoad disengages below this (hysteresis band).
	dynSplitOffLoad = 0.70
	// dynSplitShare is the minimum fraction of the core's busy cycles
	// napi_gro_receive must contribute: splitting relocates GRO, so a
	// core saturated by anything else gains nothing from it.
	dynSplitShare = 0.30
)

// dynSplitState tracks one watched NAPI core.
type dynSplitState struct {
	core      int
	lastCand  int64 // candidate function ns at the previous tick
	lastTotal int64 // total busy ns at the previous tick
}

// EnableDynamicGROSplit turns on runtime control of GRO splitting over
// the given NAPI cores (the cores NIC queues are affined to). It
// overrides the static Config.GROSplit flag: splitting happens only
// while the controller deems it profitable.
func (f *Falcon) EnableDynamicGROSplit(napiCores []int) {
	f.dynEnabled = true
	f.dynActive = false
	for _, c := range napiCores {
		f.dynWatch = append(f.dynWatch, &dynSplitState{core: c})
	}
	f.m.OnTick(func(now sim.Time) { f.dynTick() })
}

// DynamicSplitActive reports whether the controller currently has the
// split engaged.
func (f *Falcon) DynamicSplitActive() bool { return f.dynActive }

// dynTick re-evaluates the split decision from the last tick window.
func (f *Falcon) dynTick() {
	engage := false
	clear := true
	for _, w := range f.dynWatch {
		cand := f.m.Acct.CoreTimeSinceBoot(w.core, costmodel.FnGROReceive)
		total := f.m.Acct.BusySinceBoot(w.core)
		dCand := cand - w.lastCand
		dTotal := total - w.lastTotal
		w.lastCand, w.lastTotal = cand, total

		load := f.m.Load.Load(w.core)
		share := 0.0
		if dTotal > 0 {
			share = float64(dCand) / float64(dTotal)
		}
		if load >= dynSplitOnLoad && share >= dynSplitShare {
			engage = true
		}
		if load >= dynSplitOffLoad {
			clear = false
		}
	}
	switch {
	case engage:
		f.dynActive = true
	case clear:
		f.dynActive = false
	}
}
