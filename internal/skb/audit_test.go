package skb

import "testing"

// The pool-misuse guards must hold with no auditor attached: a released
// SKB is never re-inserted into the free list, and the attempt is
// visible in the process-wide PoolMisuses counter.

func TestDoubleFreeSuppressedAndCounted(t *testing.T) {
	base := PoolMisuses()
	s := NewTx(64, 0, 0)
	gen := s.Gen()
	s.Free()
	s.Free()
	if got := PoolMisuses() - base; got != 1 {
		t.Fatalf("double free counted %d misuses, want 1", got)
	}
	if s.Gen() != gen+1 {
		t.Fatalf("second free advanced the generation: %d -> %d", gen, s.Gen())
	}
}

func TestHandleGoesStaleOnFree(t *testing.T) {
	s := NewTx(64, 0, 0)
	h := s.Handle()
	if !h.Valid() || h.Get() != s {
		t.Fatal("fresh handle invalid")
	}
	s.Free()
	if h.Valid() {
		t.Fatal("handle valid after free")
	}
	if h.Get() != nil {
		t.Fatal("stale handle still dereferences")
	}
	base := PoolMisuses()
	if h.Free() {
		t.Fatal("stale handle free reported success")
	}
	if got := PoolMisuses() - base; got != 1 {
		t.Fatalf("stale free counted %d misuses, want 1", got)
	}
}

func TestHandleFreeWorksWhileLive(t *testing.T) {
	s := NewTx(64, 0, 0)
	h := s.Handle()
	if !h.Free() {
		t.Fatal("live handle free failed")
	}
	if h.Valid() {
		t.Fatal("handle survived its own free")
	}
}

func TestHandleSurvivesReincarnation(t *testing.T) {
	// After a free the pool may hand the same *SKB out again with a
	// bumped generation; the old handle must not free the new owner's
	// packet out from under it.
	s := NewTx(64, 0, 0)
	h := s.Handle()
	s.Free()
	s2 := NewTx(64, 0, 0) // likely the same pooled object, next generation
	if h.Valid() {
		t.Fatal("handle valid across incarnations")
	}
	h.Free() // must be a no-op whoever owns the object now
	if s2.Gen() == h.gen && s2 == h.s {
		t.Fatal("stale handle freed a reincarnated SKB")
	}
	s2.Free()
}

func TestQueueCountersAndValidate(t *testing.T) {
	q := NewQueue(4)
	for i := 0; i < 6; i++ {
		q.Enqueue(NewTx(16, 0, 0))
	}
	if q.Enqueued() != 4 || q.Dropped() != 2 {
		t.Fatalf("enq=%d dropped=%d, want 4/2", q.Enqueued(), q.Dropped())
	}
	if walk, ok := q.Validate(); !ok || walk != 4 {
		t.Fatalf("validate: walk=%d ok=%t", walk, ok)
	}
	n := 0
	for s := q.Dequeue(); s != nil; s = q.Dequeue() {
		s.Free()
		n++
	}
	if n != 4 || q.Dequeued() != 4 {
		t.Fatalf("dequeued %d (counter %d), want 4", n, q.Dequeued())
	}
	if walk, ok := q.Validate(); !ok || walk != 0 {
		t.Fatalf("validate after drain: walk=%d ok=%t", walk, ok)
	}
	if int(q.Enqueued()-q.Dequeued()) != q.Len() {
		t.Fatalf("depth %d != enq-deq %d", q.Len(), q.Enqueued()-q.Dequeued())
	}
}

// recordingAuditor asserts the hook call sequence without pulling the
// audit package into skb's tests (the real implementation lives there).
type recordingAuditor struct {
	events []string
}

func (r *recordingAuditor) SKBGet(s *SKB, site string) { r.events = append(r.events, "get:"+site) }
func (r *recordingAuditor) SKBStage(s *SKB, stage string) {
	r.events = append(r.events, "stage:"+stage)
}
func (r *recordingAuditor) SKBFree(s *SKB) { r.events = append(r.events, "free") }
func (r *recordingAuditor) SKBMisuse(s *SKB, kind string) {
	r.events = append(r.events, "misuse:"+kind)
}

func TestAuditorHookSequence(t *testing.T) {
	rec := &recordingAuditor{}
	s := NewTx(64, 0, 0)
	s.Audit(rec, "site-a")
	s.Stage("stage-1")
	s.Stage("stage-2")
	s.Free()
	s.Free() // misuse: reported to the still-attached auditor
	want := []string{"get:site-a", "stage:stage-1", "stage:stage-2", "free", "misuse:double-free"}
	if len(rec.events) != len(want) {
		t.Fatalf("events %v, want %v", rec.events, want)
	}
	for i := range want {
		if rec.events[i] != want[i] {
			t.Fatalf("event[%d] = %q, want %q (all: %v)", i, rec.events[i], want[i], rec.events)
		}
	}
}

func TestStageWithoutAuditorIsNoop(t *testing.T) {
	s := NewTx(64, 0, 0)
	s.Stage("anything") // must not panic or allocate
	s.Free()
}
