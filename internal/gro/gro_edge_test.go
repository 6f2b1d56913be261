package gro

import "testing"

// TestOutOfOrderAbsorbTable pins Push's merge decision against every
// out-of-order shape one flow can produce relative to a held run
// [1000, 1100): only the exact-next sequence is absorbed; anything else
// — forward gap, retransmit, backward overlap — releases the held
// super-packet and starts a new run at the offered segment, exactly as
// the kernel's tcp_gro_receive flush-on-mismatch does.
func TestOutOfOrderAbsorbTable(t *testing.T) {
	cases := []struct {
		name    string
		seq     uint32
		absorb  bool
		newNext uint32 // expected nextSeq of the head left behind
	}{
		{"exact-next", 1100, true, 1200},
		{"forward-gap", 1300, false, 1400},
		{"retransmit-head", 1000, false, 1100},
		{"backward-overlap", 1050, false, 1150},
		{"far-backward", 20, false, 120},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			if e.Push(tcpSeg(5000, 1000, 100)) != nil {
				t.Fatal("head segment not held")
			}
			out := e.Push(tcpSeg(5000, tc.seq, 100))
			if tc.absorb {
				if out != nil {
					t.Fatal("exact-next segment not absorbed")
				}
				if e.Merged != 1 {
					t.Fatalf("Merged = %d, want 1", e.Merged)
				}
			} else {
				if out == nil {
					t.Fatalf("seq %d did not release the held packet", tc.seq)
				}
				if seq, n := segOf(t, out); seq != 1000 || n != 100 {
					t.Fatal("released packet is not the held head")
				}
				if e.Merged != 0 {
					t.Fatal("out-of-order segment was merged")
				}
			}
			// Exactly one run remains held either way; a following
			// exact-next segment for the new run must be absorbed,
			// proving nextSeq advanced to the expected position.
			if e.HeldCount() != 1 {
				t.Fatalf("HeldCount = %d, want 1", e.HeldCount())
			}
			if e.Push(tcpSeg(5000, tc.newNext, 2)) != nil {
				t.Fatalf("segment at new nextSeq %d not absorbed", tc.newNext)
			}
			if fl := e.Flush(); len(fl) != 1 {
				t.Fatalf("flush = %d packets, want 1", len(fl))
			}
			if e.HeldCount() != 0 {
				t.Fatal("flush left held state")
			}
		})
	}
}

// TestInterleavedFlowsKeepIndependentRuns: out-of-order on one flow must
// not disturb another flow's in-progress merge.
func TestInterleavedFlowsKeepIndependentRuns(t *testing.T) {
	e := New()
	e.Push(tcpSeg(5000, 0, 50))
	e.Push(tcpSeg(6000, 0, 50))
	// Flow 5000 jumps; flow 6000 stays contiguous.
	if e.Push(tcpSeg(5000, 7777, 50)) == nil {
		t.Fatal("gap on flow 5000 not released")
	}
	if e.Push(tcpSeg(6000, 50, 50)) != nil {
		t.Fatal("contiguous segment on flow 6000 not absorbed")
	}
	out := e.Flush()
	if len(out) != 2 {
		t.Fatalf("flush = %d packets, want 2", len(out))
	}
	// Flow 6000's super-packet kept both segments despite the other
	// flow's reset in between.
	var found bool
	for _, s := range out {
		if _, n := segOf(t, s); s.Segs == 2 && n == 100 {
			found = true
		}
	}
	if !found {
		t.Fatal("flow 6000 merge was disturbed by flow 5000's gap")
	}
}
