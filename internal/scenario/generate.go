package scenario

import (
	"fmt"

	"falcon/internal/sim"
)

// Generate samples one random-but-valid scenario from the fuzz seed.
// The same seed always yields the same scenario (the generator draws
// from the simulator's own splitmix stream), and the scenario reuses
// the seed for its engine, so "fuzz seed N" fully determines the run.
//
// The distribution is shaped toward the paper's interesting regimes:
// mostly overlay traffic (the contribution is overlay parallelization),
// a UDP bias (the exact-conservation oracle needs UDP-only runs),
// occasional MTU-limited links (exercising IP fragmentation), and a
// ~30% chance of a fault schedule (exercising graceful degradation).
func Generate(seed uint64) Scenario {
	r := sim.NewRand(seed)
	pick := func(xs ...int) int { return xs[r.Intn(len(xs))] }

	sc := Scenario{
		Name:       fmt.Sprintf("gen-%d", seed),
		Seed:       seed,
		Cores:      pick(6, 8, 12, 16),
		LinkGbps:   float64(pick(10, 100)),
		Containers: 1 + r.Intn(3),
		GRO:        r.Float64() < 0.8,
		InnerGRO:   r.Float64() < 0.5,
		TwoChoice:  r.Float64() < 0.75,
		GROSplit:   r.Float64() < 0.75,
		AlwaysOn:   r.Float64() < 0.15,
		AppCore:    2,
		WarmupMs:   2 + r.Intn(2),
		WindowMs:   6 + r.Intn(5),
	}
	if r.Float64() < 0.25 {
		sc.Kernel = "5.4"
	}
	if r.Float64() < 0.1 {
		sc.MTU = 1500
	}

	// FALCON_CPUS: k cores starting at 3 (the single-flow layout: RSS
	// on 0, RPS on 1, app on 2). Bounded by the machine size.
	kmax := sc.Cores - 3
	if kmax > 4 {
		kmax = 4
	}
	k := 1 + r.Intn(kmax)
	for c := 3; c < 3+k; c++ {
		sc.FalconCPUs = append(sc.FalconCPUs, c)
	}

	nflows := 1 + r.Intn(3)
	for i := 0; i < nflows; i++ {
		f := FlowSpec{SendCore: 2 + i, Ctr: 1 + r.Intn(sc.Containers)}
		if r.Float64() < 0.25 {
			f.Proto = "tcp"
			f.Size = pick(1024, 4096, 16384, 65536)
		} else {
			f.Proto = "udp"
			f.Size = pick(16, 64, 256, 512, 1024, 1472, 4096, 16384)
			if r.Float64() < 0.6 {
				f.RatePPS = float64(20_000 + r.Intn(180_000))
			} // else flood
			if r.Float64() < 0.1 {
				f.Ctr = 0 // host networking
			}
		}
		sc.Flows = append(sc.Flows, f)
	}

	if r.Float64() < 0.3 {
		n := 1 + r.Intn(MaxFaults)
		for i := 0; i < n; i++ {
			sc.Faults = append(sc.Faults, genFault(r, sc))
		}
	}

	// Reconfig draws come after every earlier field, and crash draws
	// after every reconfig draw: each extension appends new draws
	// strictly behind the frozen prefix, so pre-extension fuzz seeds
	// keep generating byte-identical scenarios for everything they
	// already contained (the seeded-defect corpus and CI self-tests
	// depend on that).
	if r.Float64() < 0.2 {
		n := 1 + r.Intn(MaxReconfigs)
		for i := 0; i < n; i++ {
			sc.Reconfigs = append(sc.Reconfigs, genReconfig(r, sc))
		}
	}
	// A crash must be the sole reconfig (the validator's rule) and needs
	// the same migratable shape as a drain.
	if len(sc.Reconfigs) == 0 && sc.UDPOnly() && sc.OverlayOnly() && sc.Containers >= 1 {
		if r.Float64() < 0.12 {
			sc.Reconfigs = append(sc.Reconfigs, genCrash(r, sc))
		}
	}
	// Open-loop draws come after the crash draw (frozen-prefix rule
	// again): a quarter of scenarios add a churning heavy-tailed flow
	// population, the regime the tail-sanity oracle measures.
	if r.Float64() < 0.25 {
		sc.OpenLoop = genOpenLoop(r)
	}
	// RX-cache draw comes last (the newest extension of the frozen
	// prefix): a third of scenarios run with the decap fast path on, so
	// the whole oracle battery — conservation, kernel equivalence,
	// crash/reconfig sanity, shard invariance — also exercises the
	// cached datapath, and the transparency oracle gets cache-on runs to
	// compare against their cache-off twins.
	sc.RxCache = r.Float64() < 0.33
	return sc
}

// genOpenLoop samples one open-loop population. Offered load tops out
// at ~160 Kpps (10k flows/s × 16 pkts), well inside both the validator
// bound and a 100G receiver — overload is the tail experiment's job,
// the fuzzer just needs live churn on every datapath shape.
func genOpenLoop(r *sim.Rand) *OpenLoopSpec {
	dists := []string{"pareto", "lognormal"}
	arrivals := []string{"poisson", "mmpp"}
	sizes := []int{16, 64, 256, 512}
	return &OpenLoopSpec{
		Dist:        dists[r.Intn(len(dists))],
		Arrivals:    arrivals[r.Intn(len(arrivals))],
		FlowsPerSec: float64(1000 + r.Intn(9000)),
		MeanPkts:    float64(4 + r.Intn(13)),
		Size:        sizes[r.Intn(len(sizes))],
		FlowRatePPS: float64(10_000 + r.Intn(90_000)),
		Ports:       1 + r.Intn(3),
	}
}

// genCrash samples one abrupt server outage: the crash lands in the
// first half of the window and the reboot inside it, so the failure
// detector's fail-over, and usually the reboot re-admission too, play
// out under observation. Short outages (below the ~2ms detection bound)
// are deliberately reachable: a host that reboots before being declared
// dead exercises the no-failover recovery path.
func genCrash(r *sim.Rand, sc Scenario) ReconfigSpec {
	rc := ReconfigSpec{Kind: "crash"}
	rc.AtMs = 1 + r.Intn(max(1, sc.WindowMs/2))
	rc.ForMs = 1 + r.Intn(max(1, sc.WindowMs/2))
	if rc.AtMs+rc.ForMs > sc.WindowMs {
		rc.ForMs = sc.WindowMs - rc.AtMs
	}
	return rc
}

// genReconfig samples one hot-reconfiguration window that fits the
// scenario. Drains are only legal on overlay-only UDP scenarios (the
// validator's rule), and at most one per scenario.
func genReconfig(r *sim.Rand, sc Scenario) ReconfigSpec {
	kinds := []string{"kernel-upgrade", "rps-flip"}
	if sc.UDPOnly() && sc.OverlayOnly() && sc.Containers >= 1 && !sc.HasDrain() {
		kinds = append(kinds, "drain")
	}
	rc := ReconfigSpec{Kind: kinds[r.Intn(len(kinds))]}
	rc.AtMs = 1 + r.Intn(max(1, sc.WindowMs/2))
	if rc.Kind != "kernel-upgrade" {
		rc.ForMs = 1 + r.Intn(max(1, sc.WindowMs/4))
		if rc.AtMs+rc.ForMs > sc.WindowMs {
			rc.ForMs = sc.WindowMs - rc.AtMs
		}
	}
	return rc
}

// genFault samples one impairment whose window fits inside the
// scenario's measurement window.
func genFault(r *sim.Rand, sc Scenario) FaultSpec {
	kinds := []string{"link-loss", "link-jitter", "ring-shrink",
		"core-stall", "core-offline", "kv-flaky", "noisy-neighbor"}
	ft := FaultSpec{Kind: kinds[r.Intn(len(kinds))]}
	ft.AtMs = 1 + r.Intn(sc.WindowMs/2)
	ft.ForMs = 1 + r.Intn(max(1, sc.WindowMs/4))
	switch ft.Kind {
	case "link-loss":
		ft.Rate = 0.02 + float64(0.13*r.Float64())
	case "link-jitter":
		ft.Amount = 10 + r.Intn(150) // µs
	case "ring-shrink":
		ft.Amount = 4 + r.Intn(28) // slots
	case "core-stall", "core-offline":
		ft.Cores = []int{sc.FalconCPUs[r.Intn(len(sc.FalconCPUs))]}
	case "kv-flaky":
		ft.Amount = 20 + r.Intn(80) // µs
		ft.Rate = 0.1 + float64(0.3*r.Float64())
	case "noisy-neighbor":
		ft.Cores = append([]int(nil), sc.FalconCPUs...)
		ft.Rate = 0.3 + float64(0.4*r.Float64())
	}
	return ft
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
