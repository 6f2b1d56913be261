package sim

// FIFO is a first-in, first-out queue that recycles its backing array:
// popping advances a head index instead of reslicing, a fully drained
// queue rewinds to the front of the array, and once the consumed head
// passes half the array's capacity the live tail is copied down to the
// front. The drain-refill cycle of a queue under load then stops
// allocating entirely — with the `q = q[1:]` idiom every drain strands
// the array's capacity behind the slice pointer and the next push
// reallocates from scratch — and a queue that never drains keeps its
// array within a small multiple of its peak depth instead of growing
// for the whole run. Each copy moves fewer items than were popped since
// the last one, so it is O(1) amortized. The zero value is empty.
type FIFO[T any] struct {
	items []T
	head  int
}

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) { q.items = append(q.items, v) }

// Pop removes and returns the head item; the queue must not be empty.
// The vacated slot is zeroed, so the queue keeps no reference to it.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head*2 >= cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[q.head:]) // the moved items' old slots
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// Peek returns the head item without removing it; the queue must not be
// empty.
func (q *FIFO[T]) Peek() T { return q.items[q.head] }

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Cap returns the capacity of the backing array: the queue's memory
// footprint in items, which the compaction keeps within a small multiple
// of the peak depth.
func (q *FIFO[T]) Cap() int { return cap(q.items) }
