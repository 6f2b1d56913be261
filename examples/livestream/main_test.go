package main

// Example pins the program's output: the simulation is deterministic,
// so any change to the modeled datapath that moves these numbers
// shows up here.
func Example() {
	main()
	// Output:
	// elephant UDP flow (live-video relay): one flow, 780 Kpps offered
	//
	// Host    delivered   568.5 Kpps  frame loss  27.1%  p99   1818.6 us
	// Con     delivered   295.2 Kpps  frame loss  62.1%  p99   3440.6 us
	// Falcon  delivered   510.0 Kpps  frame loss  34.6%  p99   4244.2 us
	//
	// packet steering cannot split a single flow; only Falcon's stage
	// pipelining lets the overlay keep up with an elephant UDP stream.
}
