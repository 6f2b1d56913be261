package transport

import (
	"runtime"
	"testing"

	"falcon/internal/devices"
	"falcon/internal/sim"
)

// TestBulkAllocs bounds the heap allocations per delivered segment of a
// bulk TCP connection over the overlay, after a warmup that fills the
// pools and caches. A data segment's continuation is bound once per
// connection, its timers are slots reserved at Dial, and the TCP header
// travels by value, so a segment costs 0.63 allocations, all of them
// GRO's; a closure per segment or per timer arm adds one or more
// allocations per segment here. The count is the process-wide malloc delta, so the test
// does not run in parallel.
func TestBulkAllocs(t *testing.T) {
	const limit = 0.8 // allocations per delivered segment
	b := newBed(t, 100*devices.Gbps, 0)
	c := dialOverlay(t, b, 1448)
	c.StartContinuous()
	b.e.RunUntil(2 * sim.Millisecond)
	segs0 := c.SegsDelivered.Value()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.e.RunUntil(7 * sim.Millisecond)
	runtime.ReadMemStats(&m1)
	segs := c.SegsDelivered.Value() - segs0
	if segs == 0 {
		t.Fatal("no segments delivered")
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(segs)
	t.Logf("%.4f allocs/segment over %d segments (limit %.2f)", per, segs, limit)
	if per > limit {
		t.Errorf("%.4f allocs/segment > %.2f", per, limit)
	}
}

// TestTimerArmAllocs pins that the connection's timers cost nothing to
// arm: re-arming the RTO, and one delayed-ACK cycle (arm, then sendAck
// clears the timer), allocate nothing on a live connection. Each sets a
// slot Dial reserved; scheduling an engine event with c.onRTO or
// c.onDelayedAck instead would allocate one closure per arm.
// The cycle runs the engine until its ACK has reached the sender, so the
// ACK's buffers go back to their pools.
func TestTimerArmAllocs(t *testing.T) {
	b := newBed(t, 100*devices.Gbps, 0)
	c := dialOverlay(t, b, 1448)
	c.Send(64)
	b.e.RunUntil(2 * sim.Millisecond)
	if c.Outstanding() != 0 {
		t.Fatalf("%d bytes still outstanding after the transfer", c.Outstanding())
	}
	if n := testing.AllocsPerRun(100, c.armRTO); n != 0 {
		t.Errorf("armRTO: %v allocs, want 0", n)
	}
	core := b.server.M.Core(1)
	if n := testing.AllocsPerRun(100, func() {
		c.armDelayedAck(core)
		c.sendAck(core, false)
		b.e.RunUntil(b.e.Now() + 100*sim.Microsecond)
	}); n != 0 {
		t.Errorf("delayed-ACK cycle: %v allocs, want 0", n)
	}
}
