package workload

import (
	"math"
	"testing"

	"falcon/internal/devices"
	"falcon/internal/sim"
)

// sampleStats draws n values and returns their mean plus the fraction
// exceeding the tail threshold.
func sampleStats(s Sampler, r *sim.Rand, n int, tailAt float64) (mean, tailMass float64) {
	sum, tail := 0.0, 0
	for i := 0; i < n; i++ {
		v := s.Sample(r)
		sum += v
		if v > tailAt {
			tail++
		}
	}
	return sum / float64(n), float64(tail) / float64(n)
}

func TestParetoSampler(t *testing.T) {
	// Alpha 2.5 keeps the variance finite so the sample mean converges
	// at a testable rate while the tail stays polynomial.
	p := Pareto{Xm: 4, Alpha: 2.5}
	wantMean := 2.5 * 4 / 1.5
	if got := p.Mean(); math.Abs(got-wantMean) > 1e-9 {
		t.Fatalf("analytic mean = %v, want %v", got, wantMean)
	}
	r := sim.NewRand(42)
	mean, tail := sampleStats(p, r, 200_000, 16)
	if math.Abs(mean-wantMean)/wantMean > 0.05 {
		t.Fatalf("sample mean %v, analytic %v", mean, wantMean)
	}
	// P(X > 16) = (4/16)^2.5 = 0.03125.
	wantTail := math.Pow(0.25, 2.5)
	if math.Abs(tail-wantTail) > 0.004 {
		t.Fatalf("tail mass %v, analytic %v", tail, wantTail)
	}
	if (Pareto{Xm: 1, Alpha: 1}).Mean() != math.Inf(1) {
		t.Fatal("alpha<=1 must report infinite mean")
	}
}

func TestLognormalSampler(t *testing.T) {
	l := LognormalWithMean(12, 0.75)
	if math.Abs(l.Mean()-12) > 1e-9 {
		t.Fatalf("LognormalWithMean mean = %v", l.Mean())
	}
	r := sim.NewRand(43)
	mean, tail := sampleStats(l, r, 200_000, l.Mean()*2)
	if math.Abs(mean-12)/12 > 0.03 {
		t.Fatalf("sample mean %v, analytic 12", mean)
	}
	// P(X > 2·mean) = P(Z > (ln(2·mean)-Mu)/Sigma) = 1 - Φ(z).
	z := (math.Log(24) - l.Mu) / l.Sigma
	wantTail := 0.5 * math.Erfc(z/math.Sqrt2)
	if math.Abs(tail-wantTail) > 0.005 {
		t.Fatalf("tail mass %v, analytic %v", tail, wantTail)
	}
}

// gapCV returns the coefficient of variation of n interarrival gaps and
// their mean in seconds.
func gapCV(a Arrivals, r *sim.Rand, n int) (cv, meanSec float64) {
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		g := float64(a.NextGap(r))
		sum += g
		sumSq += g * g
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	return math.Sqrt(variance) / mean, mean / 1e9
}

func TestPoissonArrivalCV(t *testing.T) {
	r := sim.NewRand(44)
	cv, mean := gapCV(PoissonArrivals{Rate: 50_000}, r, 100_000)
	if cv < 0.95 || cv > 1.05 {
		t.Fatalf("Poisson interarrival CV = %v, want ~1", cv)
	}
	if math.Abs(mean-1.0/50_000)/(1.0/50_000) > 0.02 {
		t.Fatalf("Poisson mean gap %vs, want %vs", mean, 1.0/50_000)
	}
}

func TestMMPPArrivalCV(t *testing.T) {
	m := &MMPP2{
		CalmRate: 20_000, BurstRate: 200_000,
		MeanCalm: sim.Millisecond, MeanBurst: 250 * sim.Microsecond,
	}
	wantRate := (20_000*1.0 + 200_000*0.25) / 1.25
	if math.Abs(m.MeanRate()-wantRate)/wantRate > 1e-9 {
		t.Fatalf("MeanRate = %v, want %v", m.MeanRate(), wantRate)
	}
	r := sim.NewRand(45)
	cv, mean := gapCV(m, r, 200_000)
	// Modulated arrivals must be over-dispersed relative to Poisson.
	if cv < 1.25 {
		t.Fatalf("MMPP interarrival CV = %v, want > 1.25 (burstier than Poisson)", cv)
	}
	if math.Abs(mean-1.0/wantRate)/(1.0/wantRate) > 0.10 {
		t.Fatalf("MMPP mean gap %vs, want %vs", mean, 1.0/wantRate)
	}
}

// TestOpenLoopChurn: a heavy-tailed population with Poisson flow
// arrivals must settle near Little's-law occupancy — live flows
// ≈ arrival rate × mean flow duration — with continuous churn, reaching
// thousands of concurrent flows.
func TestOpenLoopChurn(t *testing.T) {
	tb := NewTestbed(TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 8, Containers: 1,
		GRO: true, InnerGRO: true, Seed: 11,
	})
	until := 15 * sim.Millisecond
	flowsPerSec := 250_000.0
	cfg := OpenLoopConfig{
		Arrivals:   PoissonArrivals{Rate: flowsPerSec},
		FlowSize:   Pareto{Xm: 2, Alpha: 2}, // mean 4 packets
		PacketSize: 64,
		FlowRate:   400, // 2.5ms mean gap: flows live for milliseconds
		SendCores:  []int{2, 3},
		Ctr:        1,
	}
	ol := tb.StartOpenLoop(cfg, until)
	// E[duration] ≈ (E[size]-1)/FlowRate; Little's law gives the
	// expected live population once past the ramp.
	expLive := flowsPerSec * (4 - 1) / 400
	var samples []int
	for _, at := range []sim.Time{10, 12, 14} {
		tb.E.At(at*sim.Millisecond, func() { samples = append(samples, ol.Live()) })
	}
	tb.Run(until)
	for i, live := range samples {
		if float64(live) < 0.45*expLive || float64(live) > 1.8*expLive {
			t.Fatalf("sample %d: live=%d far from Little's-law expectation %.0f", i, live, expLive)
		}
	}
	if ol.Peak() < 1000 {
		t.Fatalf("peak live flows = %d, want thousands", ol.Peak())
	}
	if ol.Finished() < 1000 {
		t.Fatalf("finished flows = %d, want heavy churn", ol.Finished())
	}
	if ol.Sent() == 0 || ol.Started() == 0 {
		t.Fatal("population sent nothing")
	}
	if got := cfg.OfferedPPS(flowsPerSec); math.Abs(got-1_000_000) > 1 {
		t.Fatalf("OfferedPPS = %v, want 1e6", got)
	}
}

// TestOpenLoopReusesFlows: a churning population allocates exactly
// Peak() flows, each with its own slot, and with the arrival slot
// reserves Peak()+1 slots, well below the Started() flows it runs. Once
// every flow has finished, all of them wait in the free list.
func TestOpenLoopReusesFlows(t *testing.T) {
	tb := NewTestbed(TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 8, Containers: 1,
		GRO: true, InnerGRO: true, Seed: 5,
	})
	until := 10 * sim.Millisecond
	ol := tb.StartOpenLoop(OpenLoopConfig{
		Arrivals:  PoissonArrivals{Rate: 50_000},
		FlowSize:  Pareto{Xm: 2, Alpha: 2},
		FlowRate:  2_000,
		SendCores: []int{2, 3},
		Ctr:       1,
	}, until)
	tb.Run(until + 20*sim.Millisecond)
	if ol.Live() != 0 || ol.Finished() != ol.Started() {
		t.Fatalf("live %d, finished %d of %d: the population did not drain", ol.Live(), ol.Finished(), ol.Started())
	}
	if uint64(ol.Peak())*3 > ol.Started() {
		t.Fatalf("peak %d of %d started flows: too little churn to test reuse", ol.Peak(), ol.Started())
	}
	if len(ol.free) != ol.Peak() {
		t.Fatalf("%d flows allocated, want Peak() = %d", len(ol.free), ol.Peak())
	}
	slots := map[sim.Slots]bool{ol.arrival: true}
	for _, f := range ol.free {
		slots[f.gap] = true
	}
	if len(slots) != ol.Peak()+1 {
		t.Fatalf("%d distinct slots reserved, want Peak()+1 = %d", len(slots), ol.Peak()+1)
	}
}
