package skb

// Arena is a shard-local SKB allocator. The global sync.Pool is safe
// but pays per-operation atomics and bounces cache lines between the
// PDES worker goroutines that run different shards; an Arena is a plain
// single-owner free list — each simulated host gets one, and a host's
// entire datapath runs on one logical process, so gets and puts never
// race. Cross-shard packets move their pool affinity at the cluster
// barrier (SKB.Rehome, with every LP parked), so a frame always
// recycles into the arena of the shard that freed it.
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

// Rehome moves the SKB's pool affinity to arena a (nil: the global
// pools), so the eventual Free recycles into the shard that ran it.
// Only call while the simulation is quiescent for this SKB — in
// practice, from a cluster barrier's cross-shard drain, where both the
// sending and receiving LPs are parked.
func (s *SKB) Rehome(a *Arena) { s.arena = a }
