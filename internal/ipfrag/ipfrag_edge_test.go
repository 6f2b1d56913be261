package ipfrag

import (
	"testing"

	"falcon/internal/sim"
)

// TestEvictionBoundaryExact pins the timeout comparison: a partial aged
// exactly ReassemblyTimeout is still live (eviction is strictly
// older-than, matching ip_expire firing after, not at, ip_frag_time),
// and one tick later it is gone.
func TestEvictionBoundaryExact(t *testing.T) {
	partsA, _ := fragment(bigFrame(4000, 20), 1500)
	r := NewReassembler()
	add(r, partsA[0], 0)

	// An unrelated fragment at exactly the timeout must NOT evict A...
	partsB, _ := fragment(bigFrame(4000, 21), 1500)
	add(r, partsB[0], ReassemblyTimeout)
	if r.Evicted != 0 {
		t.Fatal("partial evicted at exactly ReassemblyTimeout")
	}
	// ...and A can still complete at the boundary instant.
	var got Part
	for _, p := range partsA[1:] {
		if out, err := add(r, p, ReassemblyTimeout); err != nil {
			t.Fatal(err)
		} else if out.Data != nil {
			got = out
		}
	}
	if got.Data == nil || r.Reassembled != 1 {
		t.Fatal("datagram aged exactly ReassemblyTimeout failed to complete")
	}

	// One tick past the timeout, the survivor (B, started at the
	// boundary... still young) stays but a fresh lone partial from t=0
	// would be gone; age B past its own deadline to check the far side.
	add(r, partsA[0], 2*ReassemblyTimeout+1) // re-keys id 20 as a new partial
	if r.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1 (partial B past its timeout)", r.Evicted)
	}
}

// TestDuplicateLastFragment: the MF=0 fragment both sets the datagram's
// total length and, duplicated, must be counted once — a double-counted
// tail either corrupts the length or completes the datagram twice.
func TestDuplicateLastFragment(t *testing.T) {
	orig := bigFrame(6000, 30)
	parts, _ := fragment(orig, 1500)
	last := parts[len(parts)-1]
	r := NewReassembler()

	// Last fragment first, then again (retransmit), then the rest.
	if out, _ := add(r, last, 0); out.Data != nil {
		t.Fatal("completed from the tail alone")
	}
	if out, _ := add(r, last, 1); out.Data != nil {
		t.Fatal("completed from a duplicated tail")
	}
	completions := 0
	var got Part
	for i, p := range parts[:len(parts)-1] {
		out, err := add(r, p, sim.Time(2+i))
		if err != nil {
			t.Fatal(err)
		}
		if out.Data != nil {
			completions++
			got = out
		}
	}
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1", completions)
	}
	if !same(got, orig) {
		t.Fatal("duplicate tail corrupted the reassembled datagram")
	}
	if r.Pending() != 0 {
		t.Fatal("state left behind after completion")
	}

	// A straggler duplicate arriving after completion must not resurrect
	// the datagram — it opens a fresh partial that can only time out.
	if out, _ := add(r, last, 10); out.Data != nil {
		t.Fatal("post-completion duplicate completed a datagram")
	}
	if r.Pending() != 1 || r.Reassembled != 1 {
		t.Fatalf("pending=%d reassembled=%d after straggler", r.Pending(), r.Reassembled)
	}
}
