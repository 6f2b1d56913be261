// Package stats provides the measurement primitives used by every
// experiment: log-linear latency histograms with accurate tail
// percentiles, rate counters, interrupt counters, and per-core CPU
// utilization timelines. These reproduce the metrics the paper reports:
// packet rates (Figs. 2, 10, 13, 14), latency percentiles (Figs. 12, 18),
// interrupt counts (Figs. 4, 19) and CPU breakdowns (Figs. 5, 11, 19).
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// subBuckets is the number of linear sub-buckets per power-of-two bucket.
// 32 sub-buckets bound relative quantile error to ~3%, plenty for the
// factor-level comparisons the paper makes.
const subBuckets = 32

// Histogram is a log-linear histogram of non-negative int64 samples
// (latencies in nanoseconds, queue depths, sizes). It records exact
// min/max/sum and approximates quantiles with bounded relative error.
//
// Its rows, one per power-of-two bucket, grow to the highest bucket
// recorded, so an unused histogram holds none. A Histogram must not be
// copied by value: the copy would share its rows with the original.
type Histogram struct {
	counts [][subBuckets]uint64 // rows 0 .. highest bucket recorded
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketOf(v int64) (int, int) {
	if v < subBuckets {
		return 0, int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	// Values in [2^exp, 2^(exp+1)) split into subBuckets linear slots.
	shift := exp - 5 // log2(subBuckets)
	sub := int((uint64(v) >> uint(shift)) & (subBuckets - 1))
	return exp - 4, sub
}

func bucketMid(b, sub int) int64 {
	if b == 0 {
		return int64(sub)
	}
	exp := b + 4
	shift := exp - 5
	lo := (int64(1) << uint(exp)) | (int64(sub) << uint(shift))
	return lo + (int64(1)<<uint(shift))/2
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b, sub := bucketOf(v)
	if b >= len(h.counts) {
		h.grow(b + 1)
	}
	h.counts[b][sub]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// grow extends the rows to n with zero rows.
func (h *Histogram) grow(n int) {
	h.counts = append(h.counts, make([][subBuckets]uint64, n-len(h.counts))...)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the approximate q-quantile (q in [0,1]). Exact for the
// min (q=0); the max is exact by construction.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(float64(q * float64(h.n)))
	if rank >= h.n {
		rank = h.n - 1
	}
	var cum uint64
	for b := range h.counts {
		for sub, c := range &h.counts[b] {
			if c == 0 {
				continue
			}
			cum += c
			if cum > rank {
				m := bucketMid(b, sub)
				if m < h.min {
					m = h.min
				}
				if m > h.max {
					m = h.max
				}
				return m
			}
		}
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	if len(other.counts) > len(h.counts) {
		h.grow(len(other.counts))
	}
	for b := range other.counts {
		for s, c := range &other.counts[b] {
			h.counts[b][s] += c
		}
	}
	h.n += other.n
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears the histogram. It keeps its rows, zeroed, for reuse.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.n, h.sum, h.min, h.max = 0, 0, math.MaxInt64, 0
}

// Summary holds the standard percentile set the paper reports.
type Summary struct {
	Count              uint64
	Mean               float64
	Min, P50, P90, P99 int64
	P999, Max          int64
}

// Summarize extracts the standard summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.n,
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// String renders the summary in microseconds, the unit of the paper's
// latency figures.
func (s Summary) String() string {
	us := func(v int64) float64 { return float64(v) / 1e3 }
	return fmt.Sprintf("n=%d avg=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus",
		s.Count, s.Mean/1e3, us(s.P50), us(s.P90), us(s.P99), us(s.P999), us(s.Max))
}
