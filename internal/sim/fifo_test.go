package sim

import "testing"

// TestFIFOStaysBounded: a queue kept non-empty through a million
// push/pop pairs never drains fully, so only the half-array compaction
// keeps its backing array from growing for the whole run. Order is FIFO
// throughout, Peek sees the item Pop returns next, and popped slots are
// zeroed.
func TestFIFOStaysBounded(t *testing.T) {
	var q FIFO[*int]
	vals := make([]int, 1_000_000+8)
	for i := 0; i < 8; i++ {
		q.Push(&vals[i])
	}
	for i := 8; i < len(vals); i++ {
		q.Push(&vals[i])
		if v := q.Peek(); v != &vals[i-8] {
			t.Fatalf("peek %d: not the head", i-8)
		}
		if v := q.Pop(); v != &vals[i-8] {
			t.Fatalf("pop %d: FIFO order broken", i-8)
		}
	}
	if q.Len() != 8 {
		t.Fatalf("len = %d, want 8", q.Len())
	}
	if c := cap(q.items); c > 64 {
		t.Fatalf("backing array grew to cap %d for 8 live items", c)
	}
	for i, v := range q.items[:q.head] {
		if v != nil {
			t.Fatalf("popped slot %d still holds a reference", i)
		}
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if len(q.items) != 0 || q.head != 0 {
		t.Fatalf("drained queue did not rewind: len %d head %d", len(q.items), q.head)
	}
}
