package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken events not FIFO at %d: %v", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New(1)
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
		e.After(0, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	for i := Time(1); i <= 100; i++ {
		e.At(i*10, func() { count++ })
	}
	e.RunUntil(500)
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
	if e.Now() != 500 {
		t.Fatalf("clock = %v, want 500", e.Now())
	}
	e.RunUntil(1000)
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := New(1)
	e.After(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineStop(t *testing.T) {
	e := New(1)
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5 after Stop", count)
	}
	e.Run() // resumes
	if count != 10 {
		t.Fatalf("count = %d, want 10 after resume", count)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		e := New(seed)
		rng := e.Rand()
		var trace []uint64
		var tick func()
		tick = func() {
			trace = append(trace, rng.Uint64())
			if len(trace) < 50 {
				e.After(Time(1+rng.Intn(100)), tick)
			}
		}
		e.After(1, tick)
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism violated at %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRandIntnBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(7)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("exp mean = %v, want ~1", mean)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(9)
	a := r.Fork()
	b := r.Fork()
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked generators produced identical first values")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2500, "2.500us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", c.t, got, c.want)
		}
	}
}

// TestPendingCount: Pending counts each heap event, and the slot group
// as one while any slot is set; clearing the last set slot drops it.
func TestPendingCount(t *testing.T) {
	e := New(1)
	s := e.NewSlots(2, func(int) {})
	e.After(20, func() {})
	s.Set(0, 10)
	s.Set(1, 30)
	for _, step := range []struct {
		clear, want int
	}{{-1, 2}, {0, 2}, {1, 1}} {
		if step.clear >= 0 {
			s.Clear(step.clear)
		}
		if got := e.Pending(); got != step.want {
			t.Fatalf("Pending = %d after clearing slot %d, want %d", got, step.clear, step.want)
		}
	}
}

// TestEngineOrderingAcrossDigitBoundaries schedules events at and
// around 2^8, 2^16, 2^24 and past 2^32 ns (the digit boundaries and
// horizon of the timing wheel the engine once was) in shuffled order and
// verifies global (at, seq) firing order.
func TestEngineOrderingAcrossDigitBoundaries(t *testing.T) {
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

// TestEngineFarEventFiresOnTime checks that an event 5·2^32 ns ahead
// (past the horizon of the timing wheel the engine once was) fires at
// exactly its scheduled time while nearer events come and go.
func TestEngineFarEventFiresOnTime(t *testing.T) {
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
