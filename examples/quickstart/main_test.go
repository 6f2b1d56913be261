package main

// Example pins the program's output: the simulation is deterministic,
// so any change to the modeled datapath that moves these numbers
// shows up here (and in README.md's copy of this output).
func Example() {
	main()
	// Output:
	// single-flow UDP stress, 16B packets, 100G link
	//
	// Host       584.1 Kpps  (100% of host)   p99 latency 5444.2 us
	// Con        308.7 Kpps  (53% of host)   p99 latency 3246.7 us
	// Falcon     512.4 Kpps  (88% of host)   p99 latency 3350.2 us
	//
	// the vanilla overlay (Con) serializes three softirqs per packet on
	// one core; Falcon pipelines them across FALCON_CPUS and recovers
	// most of the loss (paper: up to 87% of host throughput).
}
