package overlay

import (
	"testing"

	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/skb"
)

// benchRxBed builds a cache-enabled bed plus a hand-crafted VXLAN frame
// addressed to the server's container — the exact frame shape the RX
// probe sees at the l3 branch — so the fast-path data structure can be
// exercised without driving the whole simulation per operation.
func benchRxBed(tb testing.TB) (*bed, *rxCache, *skb.SKB) {
	b := newBed(tb, "", 100*devices.Gbps)
	b.server.EnableRxCache()
	inner := proto.BuildUDPFrame(b.cliCtr.MAC, b.srvCtr.MAC, cliCtrIP, srvCtrIP,
		7000, 5001, 1, 64)
	return b, b.server.rxCache, vxlanToServer(b, inner, 64, 40000, 1)
}

// TestCacheRxHitPathZeroAlloc pins the fast path's allocation budget:
// a warm-hit probe — the per-packet cost the cache adds to every cached
// delivery — must allocate nothing.
func TestCacheRxHitPathZeroAlloc(t *testing.T) {
	_, rc, s := benchRxBed(t)
	rc.Learn(1, s)
	if _, ok := rc.Probe(1, s); !ok {
		t.Fatal("warm probe missed")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := rc.Probe(1, s); !ok {
			t.Fatal("warm probe missed mid-run")
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkRxFastPath measures the warm-hit probe: one map lookup, the
// freshness checks, and the cached cost computation.
func BenchmarkRxFastPath(b *testing.B) {
	_, rc, s := benchRxBed(b)
	rc.Learn(1, s)
	if _, ok := rc.Probe(1, s); !ok {
		b.Fatal("warm probe missed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.Probe(1, s)
	}
}

// BenchmarkRxMiss measures the full miss cycle a cold or invalidated
// flow pays: a probe that lazily evicts the epoch-stale entry, plus the
// relearn that repopulates it. ReconcileKV between iterations is the
// O(1) generation-lazy invalidation itself, so this also benchmarks the
// eviction discipline end to end.
func BenchmarkRxMiss(b *testing.B) {
	bd, rc, s := benchRxBed(b)
	rc.Learn(1, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.server.ReconcileKV()
		if _, ok := rc.Probe(1, s); ok {
			b.Fatal("probe hit an epoch-stale entry")
		}
		rc.Learn(1, s)
	}
}
