package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	if h.Min() != 0 || h.Max() != 31 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if h.Quantile(0) != 0 {
		t.Fatalf("q0 = %d", h.Quantile(0))
	}
	if q := h.Quantile(0.5); q < 15 || q > 17 {
		t.Fatalf("q50 = %d, want ~16", q)
	}
}

func TestHistogramMeanSum(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Record(200)
	h.Record(300)
	if h.Sum() != 600 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Mean() != 200 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatal("negative sample not clamped to 0")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Quantiles must be within ~3.5% relative error vs exact values.
	h := NewHistogram()
	var d Distribution
	r := func() func() int64 {
		state := uint64(12345)
		return func() int64 {
			state = state*6364136223846793005 + 1442695040888963407
			return int64(state >> 40) // values up to ~16M
		}
	}()
	for i := 0; i < 100000; i++ {
		v := r()
		h.Record(v)
		d.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := float64(d.Quantile(q))
		approx := float64(h.Quantile(q))
		if exact == 0 {
			continue
		}
		rel := math.Abs(approx-exact) / exact
		if rel > 0.035 {
			t.Errorf("q%.3f: approx %v vs exact %v (rel err %.4f)", q, approx, exact, rel)
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		h := NewHistogram()
		s := seed
		for i := 0; i < 1000; i++ {
			s = s*6364136223846793005 + 17
			h.Record(int64(s >> 45))
		}
		last := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileWithinMinMax(t *testing.T) {
	if err := quick.Check(func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			if v < 0 {
				v = -v
			}
			h.Record(v)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < h.Min() || v > h.Max() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 100; i++ {
		a.Record(i)
	}
	for i := int64(100); i < 200; i++ {
		b.Record(i)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Min() != 0 || a.Max() != 199 {
		t.Fatalf("min/max = %d/%d", a.Min(), a.Max())
	}
	empty := NewHistogram()
	a.Merge(empty) // must not disturb min
	if a.Min() != 0 {
		t.Fatal("merging empty histogram disturbed min")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear histogram")
	}
	h.Record(7)
	if h.Min() != 7 {
		t.Fatal("min tracking broken after reset")
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 1000)
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P99 < s.P50 || s.P999 < s.P99 || s.Max < s.P999 {
		t.Fatalf("percentiles not ordered: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}
