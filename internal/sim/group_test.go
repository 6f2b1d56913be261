package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSlotRunsAheadPastCascadeBoundary: a slot at 900 must run straight
// after the slot that set it when the one pending engine timer comes
// after it, and must wait for the timer when the timer comes first.
// Either way the timer is the only heap event fired; both slots run from
// the group. (Both timers sit past 768, the level-1 boundary of the
// timing wheel the engine once was, which a check against a lower bound
// on the next event stopped at.)
func TestSlotRunsAheadPastCascadeBoundary(t *testing.T) {
	for _, tc := range []struct {
		name           string
		event          Time
		want           []string
		fired, inlined uint64
	}{
		{"event-after-slot", 1000, []string{"a@10", "b@900", "event@1000"}, 1, 2},
		{"event-before-slot", 800, []string{"a@10", "event@800", "b@900"}, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			var got []string
			note := func(what string) { got = append(got, fmt.Sprintf("%s@%d", what, e.Now())) }
			var b Slots
			a := e.NewSlots(1, func(int) {
				note("a")
				b.Set(0, 900)
			})
			b = e.NewSlots(1, func(int) { note("b") })
			e.At(tc.event, func() { note("event") })
			a.Set(0, 10)
			e.Run()
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ran %v, want %v", got, tc.want)
			}
			if e.Fired() != tc.fired || e.Inlined() != tc.inlined {
				t.Fatalf("fired %d, inlined %d; want %d and %d", e.Fired(), e.Inlined(), tc.fired, tc.inlined)
			}
		})
	}
}

// TestSlotKeyOrdersEqualTimes: a slot set with a key stamped before
// another slot's Set runs first at an equal time, as an event scheduled
// when its key was stamped would, whichever slot was set first. A search
// that links slots by time alone puts it behind the equal-time slot.
// Neither enters the heap: nothing fires, and both run from the group.
func TestSlotKeyOrdersEqualTimes(t *testing.T) {
	e := New(1)
	var got []string
	a := e.NewSlots(1, func(int) { got = append(got, "early-stamp") })
	b := e.NewSlots(1, func(int) { got = append(got, "late-stamp") })
	k := e.Stamp()
	b.Set(0, 10)
	a.SetKey(0, 10, k)
	e.Run()
	if want := []string{"early-stamp", "late-stamp"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if e.Fired() != 0 || e.Inlined() != 2 {
		t.Fatalf("fired %d, inlined %d; want 0 and 2", e.Fired(), e.Inlined())
	}
}

// TestSlotClear: Clear unlinks a set slot wherever it sits in the key
// order, head, middle or tail, so it never runs, and leaves an empty slot
// empty; a cleared slot set again runs at its new time. Only set slots
// run, each once.
func TestSlotClear(t *testing.T) {
	e := New(1)
	var got []string
	r := e.NewSlots(4, func(i int) { got = append(got, fmt.Sprintf("%d@%d", i, e.Now())) })
	for i := range 4 {
		r.Set(i, Time(10*(i+1)))
	}
	for _, i := range []int{0, 2, 3, 0} {
		r.Clear(i)
	}
	for i, want := range []bool{false, true, false, false} {
		if r.IsSet(i) != want {
			t.Fatalf("slot %d IsSet = %t after the clears, want %t", i, r.IsSet(i), want)
		}
	}
	r.Set(3, 5)
	r.Set(2, 20)
	e.Run()
	if want := []string{"3@5", "1@20", "2@20"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if e.Fired() != 0 || e.Inlined() != 3 || e.Pending() != 0 || e.Now() != 20 {
		t.Fatalf("fired %d, inlined %d, pending %d, now %v; want 0, 3, 0 and 20",
			e.Fired(), e.Inlined(), e.Pending(), e.Now())
	}
}

// TestSlotPasses: SlotPasses counts every set and each set slot a set's
// search steps past. Slots set in time order link at the tail with no
// step; a slot nearer the tail searches back from it, one nearer the
// head searches forward from it.
func TestSlotPasses(t *testing.T) {
	e := New(1)
	r := e.NewSlots(8, func(int) {})
	for i, at := range []Time{10, 20, 30, 40, 35, 15, 5, 25} {
		r.Set(i, at)
	}
	// 35 passes 40; 15 passes 10; 25 passes 40, 35 and 30.
	if passes, sets := e.SlotPasses(); passes != 5 || sets != 8 {
		t.Fatalf("SlotPasses = %d, %d; want 5 and 8", passes, sets)
	}
}
