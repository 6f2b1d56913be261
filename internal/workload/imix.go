package workload

import "falcon/internal/sim"

// IMIXEntry is one component of a packet-size mixture.
type IMIXEntry struct {
	Size   int
	Weight float64
}

// SimpleIMIX is the classic Internet-mix distribution used by network
// equipment benchmarks: 7:4:1 of small, medium and near-MTU packets
// (weights normalized). Real application traffic (paper Fig. 6's
// memcached observation) is a size mixture, not a single size; IMIX
// flows let micro-benchmarks approximate that.
var SimpleIMIX = []IMIXEntry{
	{Size: 40, Weight: 7.0 / 12},
	{Size: 576, Weight: 4.0 / 12},
	{Size: 1400, Weight: 1.0 / 12},
}

// AverageSize returns the weighted mean of a mixture.
func AverageSize(mix []IMIXEntry) float64 {
	total, wsum := 0.0, 0.0
	for _, e := range mix {
		total += float64(e.Size) * e.Weight
		wsum += e.Weight
	}
	if wsum == 0 {
		return 0
	}
	return total / wsum
}

// SendIMIXAtRate emits packets whose sizes follow the mixture, at the
// given average rate with Poisson arrivals, until the absolute time.
func (f *UDPFlow) SendIMIXAtRate(mix []IMIXEntry, pps float64, until sim.Time) {
	wsum := 0.0
	for _, e := range mix {
		wsum += e.Weight
	}
	pick := func() int {
		r := f.rng.Float64() * wsum
		acc := 0.0
		for _, e := range mix {
			acc += e.Weight
			if r < acc {
				return e.Size
			}
		}
		return mix[len(mix)-1].Size
	}
	f.sendPoisson(pps, until, pick)
}
