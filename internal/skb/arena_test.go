package skb

import "testing"

// TestArenaRecycles: an SKB goes back to the arena that allocated it
// whichever host's code frees it, comes back out wiped to a fresh
// incarnation, and a second free of it is suppressed before it can
// enter the free list twice.
func TestArenaRecycles(t *testing.T) {
	a, b := NewArena(), NewArena()
	s := a.NewTx(64, 0, 0)
	s.Segs, s.LastCore = 3, 5
	s.Audit(&recordingAuditor{}, "site")
	gen := s.Gen()

	// Host b's code frees the frame host a allocated.
	s.Free()
	if len(a.skbs) != 1 || a.skbs[0] != s || len(b.skbs) != 0 {
		t.Fatalf("freed SKB went to the wrong arena: a holds %d, b holds %d", len(a.skbs), len(b.skbs))
	}

	base := PoolMisuses()
	s.Free()
	if got := PoolMisuses() - base; got != 1 {
		t.Fatalf("double free through the arena counted %d misuses, want 1", got)
	}
	if len(a.skbs) != 1 {
		t.Fatalf("double free put the SKB on the arena's list %d times", len(a.skbs))
	}

	if r := b.NewTx(64, 0, 0); r == s {
		t.Fatal("another arena reused a's SKB")
	}
	r := a.NewTx(64, 0, 0)
	if r != s {
		t.Fatal("arena did not reuse its freed SKB")
	}
	if r.Segs != 1 || r.LastCore != -1 || r.aud != nil || r.freed {
		t.Fatalf("reused SKB not reset: Segs=%d LastCore=%d aud=%v freed=%t", r.Segs, r.LastCore, r.aud, r.freed)
	}
	if r.Gen() != gen+1 {
		t.Fatalf("reused SKB generation %d, want %d", r.Gen(), gen+1)
	}
	if r.arena != a {
		t.Fatal("reused SKB no longer belongs to its arena")
	}
}
