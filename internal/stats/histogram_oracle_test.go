package stats

import (
	"math"
	"math/rand"
	"testing"
)

// denseHistogram is the histogram as it was with all 64 rows allocated
// up front: the oracle that the grow-on-demand rows must match exactly.
type denseHistogram struct {
	counts [64][subBuckets]uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

func newDense() *denseHistogram { return &denseHistogram{min: math.MaxInt64} }

func (h *denseHistogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b, sub := bucketOf(v)
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

func (h *denseHistogram) Quantile(q float64) int64 {
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
	for b := 0; b < 64; b++ {
		for sub := 0; sub < subBuckets; sub++ {
			c := h.counts[b][sub]
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

func (h *denseHistogram) Merge(o *denseHistogram) {
	if o.n == 0 {
		return
	}
	for b := range h.counts {
		for s := range h.counts[b] {
			h.counts[b][s] += o.counts[b][s]
		}
	}
	h.n += o.n
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *denseHistogram) Summarize() Summary {
	s := Summary{Count: h.n, Max: h.max,
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99), P999: h.Quantile(0.999)}
	if h.n > 0 { // the old Mean and Min read 0 when empty
		s.Mean, s.Min = float64(h.sum)/float64(h.n), h.min
	}
	return s
}

var oracleQuantiles = []float64{-1, 0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1, 2}

// sameAsOracle fails t unless h and d agree on every reading.
func sameAsOracle(t *testing.T, what string, h *Histogram, d *denseHistogram) {
	t.Helper()
	if got, want := h.Summarize(), d.Summarize(); got != want {
		t.Fatalf("%s: Summarize = %+v, oracle %+v", what, got, want)
	}
	for _, q := range oracleQuantiles {
		if got, want := h.Quantile(q), d.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, oracle %d", what, q, got, want)
		}
	}
	if h.Sum() != d.sum {
		t.Fatalf("%s: Sum = %d, oracle %d", what, h.Sum(), d.sum)
	}
}

// oracleSamples draws n samples from r: zero, negatives, values below
// the first row's width, exact row edges and their neighbours,
// math.MaxInt64, and random values of random magnitude. maxExp caps the
// magnitude, so samples fill rows up to about maxExp-4 only.
func oracleSamples(r *rand.Rand, n, maxExp int) []int64 {
	out := make([]int64, n)
	for i := range out {
		switch r.Intn(8) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = -r.Int63n(1 << 40)
		case 2:
			out[i] = r.Int63n(subBuckets)
		case 3:
			out[i] = int64(1)<<r.Intn(maxExp) + int64(r.Intn(3)) - 1
		case 4:
			if maxExp >= 63 {
				out[i] = math.MaxInt64
			} else {
				out[i] = int64(1)<<maxExp - 1
			}
		default:
			if e := 1 + r.Intn(maxExp); e < 63 {
				out[i] = r.Int63n(int64(1) << e)
			} else {
				out[i] = r.Int63()
			}
		}
	}
	return out
}

// TestHistogramMatchesDenseOracle records seeded samples into the
// grow-on-demand histogram and into the dense oracle, and checks that
// Quantile, Summarize and Merge agree exactly: after every few samples,
// for merges of a short histogram into a tall one and the reverse, and
// after a Reset and reuse.
func TestHistogramMatchesDenseOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		h, d := NewHistogram(), newDense()
		sameAsOracle(t, "empty", h, d)
		for i, v := range oracleSamples(r, 500, 63) {
			h.Record(v)
			d.Record(v)
			if i%37 == 0 {
				sameAsOracle(t, "record", h, d)
			}
		}
		sameAsOracle(t, "record", h, d)

		short, shortD := NewHistogram(), newDense()
		for _, v := range oracleSamples(r, 200, 12) {
			short.Record(v)
			shortD.Record(v)
		}
		if len(short.counts) >= len(h.counts) {
			t.Fatalf("short histogram has %d rows, tall %d", len(short.counts), len(h.counts))
		}
		sameAsOracle(t, "short", short, shortD)

		tallInto := NewHistogram()
		tallInto.Merge(short)
		tallInto.Merge(h)
		tallD := newDense()
		tallD.Merge(shortD)
		tallD.Merge(d)
		sameAsOracle(t, "taller into shorter", tallInto, tallD)

		h.Merge(short)
		d.Merge(shortD)
		sameAsOracle(t, "shorter into taller", h, d)

		h.Merge(NewHistogram())
		sameAsOracle(t, "empty into taller", h, d)

		h.Reset()
		d = newDense()
		sameAsOracle(t, "reset", h, d)
		for _, v := range oracleSamples(r, 300, 1+r.Intn(63)) {
			h.Record(v)
			d.Record(v)
		}
		sameAsOracle(t, "reuse after reset", h, d)
	}
}

// TestNewHistogramOneAlloc checks that an empty histogram is one small
// allocation: its rows come only with its samples.
func TestNewHistogramOneAlloc(t *testing.T) {
	var h *Histogram
	if n := testing.AllocsPerRun(100, func() { h = NewHistogram() }); n != 1 {
		t.Errorf("NewHistogram made %v allocations, want 1", n)
	}
	if len(h.counts) != 0 {
		t.Errorf("empty histogram holds %d rows", len(h.counts))
	}
}
