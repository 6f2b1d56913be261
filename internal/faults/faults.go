package faults

import (
	"fmt"

	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// Fault is one impairment that can be applied at a window's start and
// reverted at its end. Implementations restore the exact pre-fault
// state on Revert.
type Fault interface {
	// Name labels the fault in plans and experiment output.
	Name() string
	// Apply engages the impairment. rng is the injector's seeded
	// generator; faults needing randomness fork from it.
	Apply(in *Injector)
	// Revert restores the pre-fault state.
	Revert(in *Injector)
}

// Item schedules one fault over one absolute time window.
type Item struct {
	// At is the window start (absolute virtual time); For its duration.
	At, For sim.Time
	Fault   Fault
}

// Plan is a named chaos plan: the full schedule of impairments for one
// run. The zero value (no items) is the healthy plan and costs nothing.
type Plan struct {
	Name  string
	Items []Item
}

// String summarizes the plan.
func (p Plan) String() string {
	return fmt.Sprintf("plan{%s: %d faults}", p.Name, len(p.Items))
}

// Single wraps one fault in a plan covering the window [at, at+dur],
// named after the fault — the shape almost every scenario uses.
func Single(at, dur sim.Time, f Fault) Plan {
	return Plan{Name: f.Name(), Items: []Item{{At: at, For: dur, Fault: f}}}
}

// Injector binds plans to a simulation and makes injection observable.
// On a PDES cluster the Apply/Revert events run on the coordinator —
// at barriers, with every shard parked — so faults may safely touch
// state owned by any shard.
type Injector struct {
	E sim.Sim
	// Counters tallies windows applied/cleared.
	Counters stats.FaultCounters

	rng *sim.Rand
}

// NewInjector returns an injector on simulation e with a private RNG
// forked from the simulation's seeded root generator.
func NewInjector(e sim.Sim) *Injector {
	return &Injector{E: e, rng: e.Rand().Fork()}
}

// Rand returns the injector's seeded generator (faults fork from it in
// Apply so each fault owns an independent deterministic stream).
func (in *Injector) Rand() *sim.Rand { return in.rng }

// Install schedules every item of the plan on the engine: Apply fires
// at Item.At, Revert at Item.At+Item.For. Items must lie in the future
// (sim.Engine panics on past scheduling — a plan bug). An empty plan
// schedules nothing.
func (in *Injector) Install(plan Plan) {
	for _, it := range plan.Items {
		f := it.Fault
		in.E.At(it.At, func() {
			f.Apply(in)
			in.Counters.Injected.Inc()
		})
		in.E.At(it.At+it.For, func() {
			f.Revert(in)
			in.Counters.Cleared.Inc()
		})
	}
}

// LinkLossBurst drops each frame on Link independently with probability
// Rate for the duration of the window (a flapping optic or overloaded
// middlebox). The draw uses the link's own engine-seeded RNG.
type LinkLossBurst struct {
	Link *devices.Link
	Rate float64

	prev float64
}

func (f *LinkLossBurst) Name() string { return fmt.Sprintf("link-loss(%.0f%%)", f.Rate*100) }

func (f *LinkLossBurst) Apply(*Injector) {
	f.prev = f.Link.LossRate
	f.Link.LossRate = f.Rate
}

func (f *LinkLossBurst) Revert(*Injector) { f.Link.LossRate = f.prev }

// LinkJitterBurst adds uniform random delay in [0, Jitter] to each
// frame on Link during the window, without reordering the wire.
type LinkJitterBurst struct {
	Link   *devices.Link
	Jitter sim.Time

	prev sim.Time
}

func (f *LinkJitterBurst) Name() string { return fmt.Sprintf("link-jitter(%v)", f.Jitter) }

func (f *LinkJitterBurst) Apply(*Injector) {
	f.prev = f.Link.Jitter
	f.Link.Jitter = f.Jitter
}

func (f *LinkJitterBurst) Revert(*Injector) { f.Link.Jitter = f.prev }

// RingShrink caps the NIC's rx rings at Limit slots during the window,
// so bursts that a full ring would absorb become overflow-drop storms.
type RingShrink struct {
	NIC   *devices.PNIC
	Limit int
}

func (f *RingShrink) Name() string { return fmt.Sprintf("ring-shrink(%d)", f.Limit) }

func (f *RingShrink) Apply(*Injector) { f.NIC.SetRingLimit(f.Limit) }

func (f *RingShrink) Revert(*Injector) { f.NIC.SetRingLimit(0) }

// CoreStall silently freezes the given cores: queued and newly
// submitted work waits, nothing executes, and no notification is
// raised — detectable only by watching for stalled progress.
type CoreStall struct {
	M     *cpu.Machine
	Cores []int
}

func (f *CoreStall) Name() string { return fmt.Sprintf("core-stall%v", f.Cores) }

func (f *CoreStall) Apply(*Injector) {
	for _, c := range f.Cores {
		f.M.Core(c).SetStalled(true)
	}
}

func (f *CoreStall) Revert(*Injector) {
	for _, c := range f.Cores {
		f.M.Core(c).SetStalled(false)
	}
}

// CoreOffline hot-unplugs the given cores for the window: execution
// freezes as in CoreStall, but cpu.Core.Offline exposes the state so
// balancers can blacklist the cores without waiting out a detection
// delay.
type CoreOffline struct {
	M     *cpu.Machine
	Cores []int
}

func (f *CoreOffline) Name() string { return fmt.Sprintf("cpu-offline%v", f.Cores) }

func (f *CoreOffline) Apply(*Injector) {
	for _, c := range f.Cores {
		f.M.Core(c).SetOffline(true)
	}
}

func (f *CoreOffline) Revert(*Injector) {
	for _, c := range f.Cores {
		f.M.Core(c).SetOffline(false)
	}
}

// KVFlaky impairs the overlay control plane: while applied, every KV
// lookup attempt pays Latency and transiently fails with probability
// FailRate (gossip-store churn during node restarts). Each consulting
// host draws from its own generator, seeded off a base value taken from
// the injector's stream at Apply time: within a window a sharded run
// resolves hosts in LP order, not time order, and per-host streams make
// the failure pattern a function of (host, attempt number) alone —
// independent of shard layout and identical to the serial run.
type KVFlaky struct {
	KV       *overlay.KVStore
	Latency  sim.Time
	FailRate float64

	base    uint64
	streams map[proto.IPv4Addr]*sim.Rand
}

func (f *KVFlaky) Name() string {
	return fmt.Sprintf("kv-flaky(+%v,%.0f%%)", f.Latency, f.FailRate*100)
}

func (f *KVFlaky) Apply(in *Injector) {
	f.base = in.Rand().Uint64()
	f.streams = make(map[proto.IPv4Addr]*sim.Rand)
	f.KV.SetFault(f)
}

func (f *KVFlaky) Revert(*Injector) { f.KV.SetFault(nil) }

// Lookup implements overlay.LookupFault.
func (f *KVFlaky) Lookup(hostIP, _ proto.IPv4Addr) (sim.Time, bool) {
	if f.FailRate <= 0 {
		return f.Latency, false
	}
	r := f.streams[hostIP]
	if r == nil {
		r = sim.NewRand(f.base ^ (uint64(hostIP)+1)*0x9e3779b97f4a7c15)
		f.streams[hostIP] = r
	}
	return f.Latency, r.Float64() < f.FailRate
}

// NoisyNeighbor burns Utilization of each victim core in softirq
// context for the duration of the window — a colocated tenant whose
// interrupt load competes with the datapath (the antagonist Falcon's
// load gate exists for).
type NoisyNeighbor struct {
	M     *cpu.Machine
	Cores []int
	// Utilization in (0,1]: the fraction of each Period spent busy.
	Utilization float64
	// Period between bursts (0 → 100µs).
	Period sim.Time

	active bool
}

func (f *NoisyNeighbor) Name() string {
	return fmt.Sprintf("noisy-neighbor%v(%.0f%%)", f.Cores, f.Utilization*100)
}

func (f *NoisyNeighbor) Apply(in *Injector) {
	period := f.Period
	if period == 0 {
		period = 100 * sim.Microsecond
	}
	cost := sim.Time(float64(period) * f.Utilization)
	if cost <= 0 {
		return
	}
	f.active = true
	for _, c := range f.Cores {
		core := f.M.Core(c)
		var burst func()
		burst = func() {
			if !f.active {
				return
			}
			core.Submit(stats.CtxSoftIRQ, costmodel.FnAppWork, cost, nil)
			in.E.After(period, burst)
		}
		burst()
	}
}

func (f *NoisyNeighbor) Revert(*Injector) { f.active = false }
