// Package core implements Falcon — the paper's contribution: fast and
// balanced container networking via software-interrupt pipelining,
// splitting, and dynamic two-choice balancing (Sections 4 and 5,
// Algorithm 1).
//
// Falcon's key idea: the overlay receive path runs three softirqs per
// packet (pNIC, VXLAN, veth). RPS hashes only the flow key, so all three
// land on one core and serialize. Falcon mixes the *device index* into
// the hash (hash_32(skb.hash + ifindex)), giving each stage of the same
// flow its own core while keeping each stage pinned (in-order delivery
// per device). A load-threshold gate disables Falcon when there are no
// idle cycles to exploit, and a two-choice rehash steers softirqs away
// from transiently hot cores without load-tracking churn.
package core

import (
	"fmt"

	"falcon/internal/cpu"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

// DefaultLoadThreshold is FALCON_LOAD_THRESHOLD: the paper's sensitivity
// study (Fig. 15) finds 80–90% performs best; we default to 85%.
const DefaultLoadThreshold = 0.85

// Config selects Falcon's features. The zero value is "everything off";
// use DefaultConfig for the paper's full system.
type Config struct {
	// CPUs is FALCON_CPUS: the set of cores eligible to run pipelined
	// softirqs. Empty disables Falcon entirely.
	CPUs []int

	// LoadThreshold is FALCON_LOAD_THRESHOLD for both the global enable
	// gate (Algorithm 1 line 6) and the per-core first-choice busy test
	// (line 21). Zero means DefaultLoadThreshold.
	LoadThreshold float64

	// AlwaysOn bypasses the L_avg gate (the "always-on" configuration
	// of the paper's Fig. 15 sensitivity study).
	AlwaysOn bool

	// TwoChoice enables the second hashed choice when the first core is
	// busy. Disabling it yields the "static" balancer of Fig. 16.
	TwoChoice bool

	// LeastLoaded replaces hashing entirely with per-packet least-loaded
	// CPU selection — the aggressive strategy the paper rejects
	// (Section 4.3): stale per-tick load makes packets herd onto one
	// core between refreshes, and ignoring the flow/device pin breaks
	// in-order delivery. Kept as an ablation.
	LeastLoaded bool

	// GROSplit enables softirq splitting of the pNIC stage: skb
	// allocation stays on the NAPI core while napi_gro_receive and
	// everything after move to a Falcon core (Section 4.2).
	GROSplit bool
}

// DefaultConfig returns the full Falcon configuration over the given
// cores.
func DefaultConfig(cpus []int) Config {
	return Config{
		CPUs:          cpus,
		LoadThreshold: DefaultLoadThreshold,
		TwoChoice:     true,
		GROSplit:      true,
	}
}

// Falcon is one host's Falcon instance.
type Falcon struct {
	cfg Config
	m   *cpu.Machine

	lavg float64

	// Dynamic GRO-split controller state (dynsplit.go).
	dynEnabled bool
	dynActive  bool
	dynWatch   []*dynSplitState

	// Per-core health tracking (health.go).
	health        []coreHealth
	healthy       []int // healthy subset of cfg.CPUs, in cfg order
	degraded      bool
	degradedSince sim.Time

	// Faults makes degradation observable: reroutes off sick cores,
	// below-floor fallbacks, time spent degraded.
	Faults stats.FaultCounters

	// Diagnostics.
	firstChoice  uint64 // placements served by the first hash
	secondChoice uint64 // placements that needed the double hash
	gatedOff     uint64 // placements declined because L_avg was high
}

// New attaches Falcon to machine m and registers its L_avg refresh and
// health scan on every timer tick.
func New(m *cpu.Machine, cfg Config) *Falcon {
	if cfg.LoadThreshold == 0 {
		cfg.LoadThreshold = DefaultLoadThreshold
	}
	f := &Falcon{cfg: cfg, m: m}
	f.initHealth()
	m.OnTick(func(now sim.Time) {
		f.lavg = f.falconLoad()
		f.updateHealth(now)
	})
	return f
}

// falconLoad averages the load of the FALCON_CPUS — the cores whose
// spare cycles parallelization would consume. (Measuring over every
// core would dilute the signal on large machines where most cores never
// process packets, and the gate would never trigger.)
func (f *Falcon) falconLoad() float64 {
	if len(f.cfg.CPUs) == 0 {
		return f.m.Load.SystemAvg()
	}
	s := 0.0
	for _, c := range f.cfg.CPUs {
		s += f.m.Load.Load(c)
	}
	return s / float64(len(f.cfg.CPUs))
}

// Config returns the active configuration.
func (f *Falcon) Config() Config { return f.cfg }

// LAvg returns the system load average as of the last timer tick.
func (f *Falcon) LAvg() float64 { return f.lavg }

// Enabled implements Algorithm 1 line 6: Falcon parallelizes only while
// the system has room (L_avg below the threshold), unless AlwaysOn.
func (f *Falcon) Enabled() bool {
	if len(f.cfg.CPUs) == 0 {
		return false
	}
	if f.cfg.AlwaysOn {
		return true
	}
	return f.lavg < f.cfg.LoadThreshold
}

// placementDefect, when non-nil, transforms the candidate CPU mask
// right before placement. It exists for the scenario fuzzer's
// self-tests: seeding a known steering defect (such as dropping a core
// from the mask) proves the oracle battery catches real bugs. Never
// set in production paths.
var placementDefect func(cpus []int) []int

// SeedPlacementDefect installs (or, with nil, clears) a deliberate
// placement-mask defect. Install before any engine runs and clear after
// — the hook is a plain global read on the placement hot path.
func SeedPlacementDefect(f func(cpus []int) []int) { placementDefect = f }

// GetCPU is get_falcon_cpu (Algorithm 1 lines 17–27): it returns the
// core that should process the next stage of s at device ifindex, and
// whether Falcon placement applies (false → caller keeps the original
// path, line 11). The first choice is the device-aware hash; if that
// core is above the load threshold and two-choice is enabled, a double
// hash picks the second choice, which is used regardless of its load
// (committing avoids the fluctuation of chasing the least-loaded core).
func (f *Falcon) GetCPU(s *skb.SKB, ifindex int) (int, bool) {
	if !f.Enabled() {
		f.gatedOff++
		return 0, false
	}
	cpus := f.cfg.CPUs
	if len(f.healthy) != len(cpus) {
		// Some FALCON_CPUS are blacklisted. Below the floor, decline
		// placement entirely: the caller keeps the vanilla same-core
		// path, which needs no healthy spare cores at all.
		if len(f.healthy) < DefaultMinHealthy {
			f.Faults.Fallbacks.Inc()
			return 0, false
		}
		if first := cpus[skb.DeviceFlowHash(s.Hash, ifindex)%uint32(len(cpus))]; !f.isHealthy(first) {
			f.Faults.Rerouted.Inc()
		}
		cpus = f.healthy
	}
	if placementDefect != nil {
		cpus = placementDefect(cpus)
	}
	n := len(cpus)
	if f.cfg.LeastLoaded {
		best := cpus[0]
		bestLoad := f.m.Load.Load(best)
		for _, c := range cpus[1:] {
			if l := f.m.Load.Load(c); l < bestLoad {
				best, bestLoad = c, l
			}
		}
		f.firstChoice++
		return best, true
	}
	hash := skb.DeviceFlowHash(s.Hash, ifindex)
	cpu1 := cpus[hash%uint32(n)]
	if f.m.Load.Load(cpu1) < f.cfg.LoadThreshold || !f.cfg.TwoChoice {
		f.firstChoice++
		return cpu1, true
	}
	hash = skb.Hash32(hash)
	f.secondChoice++
	return cpus[hash%uint32(n)], true
}

// GROSplitOn reports whether softirq splitting of the pNIC stage should
// apply right now: the static configuration flag, or — when the dynamic
// controller is enabled — its runtime decision (it still only takes
// effect while Falcon is enabled).
func (f *Falcon) GROSplitOn() bool {
	if f.dynEnabled {
		return f.dynActive
	}
	return f.cfg.GROSplit
}

// Stats reports placement diagnostics: first-choice placements,
// second-choice (rehash) placements, and placements declined by the
// load gate.
func (f *Falcon) Stats() (first, second, gated uint64) {
	return f.firstChoice, f.secondChoice, f.gatedOff
}

// String summarizes the configuration.
func (f *Falcon) String() string {
	return fmt.Sprintf("falcon{cpus=%v thr=%.2f twoChoice=%v groSplit=%v alwaysOn=%v}",
		f.cfg.CPUs, f.cfg.LoadThreshold, f.cfg.TwoChoice, f.cfg.GROSplit, f.cfg.AlwaysOn)
}
