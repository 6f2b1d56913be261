package sim

import "testing"

// TestStaleStopIsNoOp pins the generation-stamp contract: once a timer
// fires, its pooled event may be recycled for unrelated work, and Stop
// through the old handle must not cancel the new event.
func TestStaleStopIsNoOp(t *testing.T) {
	e := New(1)
	var fired1, fired2 bool
	t1 := e.After(10, func() { fired1 = true })
	e.Run()
	if !fired1 {
		t.Fatal("first timer did not fire")
	}
	// The freed event is at the head of the pool: this reuses it.
	t2 := e.After(10, func() { fired2 = true })
	if t1.Stop() {
		t.Fatal("stale Stop reported success")
	}
	if !t2.Pending() {
		t.Fatal("stale Stop cancelled the recycled event")
	}
	e.Run()
	if !fired2 {
		t.Fatal("recycled event did not fire")
	}
	if t1.Pending() || t2.Pending() {
		t.Fatal("fired timers still pending")
	}
}

// TestStopAfterStopIsNoOp verifies double-Stop and Stop-then-reuse.
func TestStopAfterStopIsNoOp(t *testing.T) {
	e := New(1)
	tm := e.After(10, func() { t.Fatal("stopped timer fired") })
	if !tm.Stop() {
		t.Fatal("first Stop failed")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported success")
	}
	// Cancellation recycles immediately; the next schedule reuses the
	// event and the old handle must stay inert against it too.
	ok := false
	e.After(5, func() { ok = true })
	if tm.Stop() {
		t.Fatal("stale Stop after cancel reported success")
	}
	e.Run()
	if !ok {
		t.Fatal("reused event did not fire")
	}
}

// TestTimerStressSmallPool hammers schedule/fire/stop so every event
// struct is recycled many times, checking that exactly the un-stopped
// callbacks run, each at its scheduled time, with Pending consistent.
// Stops from the middle of the heap exercise removal's sift-up and
// sift-down.
func TestTimerStressSmallPool(t *testing.T) {
	e := New(42)
	rng := NewRand(7)
	var fired, stopped, scheduled int
	var last Time
	var timers []Timer
	var tick func(at Time)
	tick = func(at Time) {
		if e.Now() != at || at < last {
			t.Fatalf("timer due %v ran at %v, after %v", at, e.Now(), last)
		}
		last = at
		fired++
		if scheduled >= 5000 {
			return
		}
		// Schedule a small burst; randomly stop some older handles
		// (many of which are stale by now).
		for i := 0; i < 3; i++ {
			scheduled++
			at := e.Now() + Time(rng.Intn(2000))
			timers = append(timers, e.At(at, func() { tick(at) }))
		}
		for i := 0; i < 2 && len(timers) > 0; i++ {
			j := rng.Intn(len(timers))
			if timers[j].Stop() {
				stopped++
				fired++ // account: this callback will never run
			}
			timers[j] = timers[len(timers)-1]
			timers = timers[:len(timers)-1]
		}
	}
	scheduled++
	e.At(0, func() { tick(0) })
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
	if fired != scheduled {
		t.Fatalf("fired+stopped = %d, scheduled = %d", fired, scheduled)
	}
	if stopped == 0 {
		t.Fatal("stress never exercised Stop on a live timer")
	}
}

// TestWheelAndHeapOrdering schedules engine timers at and around 2^8,
// 2^16, 2^24 and past 2^32 ns (the digit boundaries and horizon of the
// timing wheel the engine once was) in shuffled order and verifies
// global (at, seq) firing order.
func TestWheelAndHeapOrdering(t *testing.T) {
	e := New(1)
	delays := []Time{
		0, 1, 2, 255, 256, 257,
		65535, 65536, 70000,
		1 << 24, 1<<24 + 3,
		1 << 32, 1<<32 + 1, 1 << 33,
	}
	perm := NewRand(9).Perm(len(delays))
	type rec struct {
		at  Time
		idx int
	}
	var got []rec
	for i, pi := range perm {
		d := delays[pi]
		i := i
		e.At(d, func() { got = append(got, rec{e.Now(), i}) })
	}
	e.Run()
	if len(got) != len(delays) {
		t.Fatalf("fired %d of %d", len(got), len(delays))
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("out of time order at %d: %v < %v", i, got[i].at, got[i-1].at)
		}
		if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
			t.Fatalf("FIFO tie-break violated at %v", got[i].at)
		}
	}
}

// TestHeapEventCrossesIntoWheel checks that an engine timer 5·2^32 ns
// ahead (past the horizon of the timing wheel the engine once was) fires
// at exactly its scheduled time while nearer events come and go.
func TestHeapEventCrossesIntoWheel(t *testing.T) {
	e := New(1)
	const far = Time(5) << 32
	var at Time
	e.At(far, func() { at = e.Now() })
	// Keep the engine busy on the way there.
	n := 0
	var hop func()
	hop = func() {
		n++
		if n < 100 {
			e.After(1<<20, hop)
		}
	}
	e.After(0, hop)
	e.Run()
	if at != far {
		t.Fatalf("far event fired at %v, want %v", at, far)
	}
}
