package skb

// Arena is one host's SKB allocator. The global sync.Pool is safe for
// concurrent simulations but pays its synchronization on every get and
// put; an Arena is a plain free list. An SKB recycles into the arena of
// the host that allocated it, wherever it is freed: every LP of a
// sharded run runs on one goroutine, so a put from another host's LP
// never races.
//
// The list is capped: overflow spills to the global pool (which also
// serves as the miss path), so a bursty host cannot strand unbounded
// memory in its arena.
type Arena struct {
	skbs []*SKB
}

// arenaSKBCap caps the free list: enough to cover a host's steady-state
// in-flight window (ring + backlog + GRO holds) without stranding
// memory.
const arenaSKBCap = 512

// NewArena returns an empty arena. It fills lazily from the global
// pool as traffic flows.
func NewArena() *Arena { return &Arena{} }

// NewTx is Arena-affine NewTx: the SKB comes from (and will recycle
// into) this arena. A nil arena falls back to the global pool.
func (a *Arena) NewTx(hdrLen, payLen, headroom int) *SKB {
	if a == nil {
		return NewTx(hdrLen, payLen, headroom)
	}
	var s *SKB
	if n := len(a.skbs); n > 0 {
		s = a.skbs[n-1]
		a.skbs[n-1] = nil
		a.skbs = a.skbs[:n-1]
		s.Segs = 1
		s.LastCore = -1
		s.freed = false
		s.aud = nil
	} else {
		s = getSKB()
		s.arena = a
	}
	return s.initTx(hdrLen, payLen, headroom)
}

// put recycles a freed SKB into the arena (overflow spills to the
// global pool). Called from Free with s.arena == a.
func (a *Arena) put(s *SKB) {
	aud, gen := s.aud, s.gen
	*s = SKB{}
	s.aud, s.gen, s.freed = aud, gen+1, true
	if len(a.skbs) < arenaSKBCap {
		s.arena = a
		a.skbs = append(a.skbs, s)
	} else {
		skbPool.Put(s)
	}
}
