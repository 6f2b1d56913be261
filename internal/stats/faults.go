package stats

// FaultCounters makes chaos-engineering behavior observable: how many
// impairment windows were applied, and how the datapath degraded and
// recovered around them. The injector (internal/faults) fills the
// injection side; Falcon's health tracker (internal/core) fills the
// degradation side. All fields are plain Counters, so an unused
// FaultCounters costs nothing.
type FaultCounters struct {
	// Injected counts impairment windows applied; Cleared counts windows
	// reverted (Injected == Cleared once a plan has fully played out).
	Injected Counter
	Cleared  Counter

	// Rerouted counts packet placements steered away from a core the
	// health tracker had blacklisted (the packet's first-choice hash
	// landed on a sick core).
	Rerouted Counter

	// Fallbacks counts placements declined entirely because the healthy
	// set shrank below the configured floor — those packets took the
	// vanilla same-core path.
	Fallbacks Counter

	// DegradedNs accumulates virtual nanoseconds spent in degraded mode
	// (healthy FALCON_CPUS below the floor).
	DegradedNs Counter
}
