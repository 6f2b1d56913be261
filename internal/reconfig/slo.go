package reconfig

import (
	"falcon/internal/overlay"
	"falcon/internal/sim"
)

// recoverFrac is the fraction of baseline per-bucket throughput a bucket
// must reach to count as recovered (same threshold the chaos experiments
// use for time-to-recovery).
const recoverFrac = 0.8

// Convergence is the SLO readout for one generation: how long delivery
// blacked out, how many packets dropped in the transition window, and
// how long until throughput returned to steady state.
type Convergence struct {
	Gen  uint64
	Kind string
	// AtMs is the generation's effective time in window-relative ms.
	AtMs int
	// BlackoutMs is the longest run of consecutive zero-delivery
	// millisecond buckets in this generation's window.
	BlackoutMs int
	// LossPkts is the drop-census delta across the generation's window
	// (this boundary to the next), bucketed in Drops.
	LossPkts uint64
	Drops    overlay.Drops
	// RecoverMs is the time from the effective instant to the first
	// bucket at ≥80% of pre-reconfig throughput (-1: never recovered
	// inside the window).
	RecoverMs int
}

// Analyze derives per-generation convergence SLOs from cumulative
// delivery samples. samples[i] is total packets delivered by time
// base + i*1ms (so bucket i, the delta samples[i+1]-samples[i], is the
// throughput of millisecond i); recs are the manager's records with
// effective times ≥ base; final is the drop census at the end of the
// run.
//
// ref, when non-nil, is the same sampling from a no-reconfig run of the
// identical bed and seed: recovery compares each bucket against the
// reference's SAME bucket, so sender-side Poisson noise (identical in
// both runs) cancels and only datapath divergence counts. Without a
// reference the baseline is the mean bucket before the first
// generation's effective time.
func Analyze(samples, ref []uint64, recs []*GenRecord, base sim.Time, final overlay.Drops) []Convergence {
	nb := len(samples) - 1
	if nb <= 0 || len(recs) == 0 {
		return nil
	}
	bucket := func(i int) uint64 { return samples[i+1] - samples[i] }
	refBucket := func(i int) float64 {
		if ref != nil && len(ref) == len(samples) {
			return float64(ref[i+1] - ref[i])
		}
		return -1
	}
	evMs := func(r *GenRecord) int {
		ms := int((r.Applied - base) / sim.Millisecond)
		if ms < 0 {
			ms = 0
		}
		if ms > nb {
			ms = nb
		}
		return ms
	}

	baseline := 0.0
	if first := evMs(recs[0]); first > 0 {
		var sum uint64
		for i := 0; i < first; i++ {
			sum += bucket(i)
		}
		baseline = float64(sum) / float64(first)
	}

	out := make([]Convergence, 0, len(recs))
	for i, r := range recs {
		start := evMs(r)
		end := nb
		var nextSnap overlay.Drops
		if i+1 < len(recs) {
			end = evMs(recs[i+1])
			nextSnap = recs[i+1].Drops
		} else {
			nextSnap = final
		}
		delta := nextSnap.Sub(r.Drops)
		c := Convergence{
			Gen: r.Gen, Kind: r.Action.Kind, AtMs: r.Action.AtMs,
			LossPkts: delta.Total(), Drops: delta, RecoverMs: -1,
		}
		run := 0
		for b := start; b < end; b++ {
			// A zero bucket only counts as blackout when delivery was
			// expected there (the reference delivered, or no reference).
			if bucket(b) == 0 && refBucket(b) != 0 {
				run++
				if run > c.BlackoutMs {
					c.BlackoutMs = run
				}
			} else {
				run = 0
			}
			want := recoverFrac * baseline
			if r := refBucket(b); r >= 0 {
				want = recoverFrac * r
			}
			if c.RecoverMs < 0 && float64(bucket(b)) >= want {
				c.RecoverMs = b - start
			}
		}
		out = append(out, c)
	}
	return out
}
