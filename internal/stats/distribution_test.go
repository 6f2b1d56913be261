package stats

import "sort"

// Distribution is a helper for exact small-sample percentiles used in
// the tests that validate the histogram approximation.
type Distribution struct{ samples []int64 }

// Record adds a sample.
func (d *Distribution) Record(v int64) { d.samples = append(d.samples, v) }

// Quantile returns the exact q-quantile by sorting.
func (d *Distribution) Quantile(q float64) int64 {
	if len(d.samples) == 0 {
		return 0
	}
	s := make([]int64, len(d.samples))
	copy(s, d.samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
