package overlay

import (
	"testing"

	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/sim"
)

// newRxBed is newBed with the RX decap fast path enabled on the server
// (the receiving side of every test flow here).
func newRxBed(t *testing.T) *bed {
	t.Helper()
	b := newBed(t, "", 100*devices.Gbps)
	b.server.EnableRxCache()
	return b
}

// rxCounters snapshots the server's fast-path counters.
func rxCounters(h *Host) (hits, misses, stale uint64) {
	return h.RxCacheHits.Value(), h.RxCacheMisses.Value(), h.RxCacheStale.Value()
}

// TestCacheRxFastPathHitAndLearn: the first packet of a flow misses and
// populates the cache through the full decap walk; the second fast-paths.
// Both must reach the destination socket.
func TestCacheRxFastPathHitAndLearn(t *testing.T) {
	b := newRxBed(t)
	sock := b.server.OpenUDP(srvCtrIP, 5001, 2)

	b.e.At(0, func() { sendOne(b, 1, nil) })
	b.e.RunUntil(sim.Millisecond)
	hits, misses, _ := rxCounters(b.server)
	if hits != 0 || misses != 1 {
		t.Fatalf("after first packet: hits=%d misses=%d, want 0/1", hits, misses)
	}
	if got := b.server.rxEntries(); got != 1 {
		t.Fatalf("rx cache has %d entries, want 1", got)
	}

	b.e.At(sim.Millisecond, func() { sendOne(b, 2, nil) })
	b.e.RunUntil(2 * sim.Millisecond)
	hits, misses, _ = rxCounters(b.server)
	if hits != 1 || misses != 1 {
		t.Fatalf("after second packet: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if got := sock.Delivered.Value(); got != 2 {
		t.Fatalf("delivered %d, want 2 (fast path must deliver like the walk)", got)
	}
}

// TestCacheRxGenerationInvalidation: a generation bump (steering flip,
// membership change) version-expires every RX entry; an unpartitioned
// host must fall back to the full walk and relearn, never serve stale.
func TestCacheRxGenerationInvalidation(t *testing.T) {
	b := newRxBed(t)
	sock := b.server.OpenUDP(srvCtrIP, 5001, 2)

	b.e.At(0, func() { sendOne(b, 1, nil) })
	b.e.At(10*sim.Microsecond, func() { sendOne(b, 2, nil) })
	b.e.At(20*sim.Microsecond, func() { b.n.BumpGeneration() })
	b.e.At(30*sim.Microsecond, func() { sendOne(b, 3, nil) })
	b.e.RunUntil(sim.Millisecond)

	hits, misses, stale := rxCounters(b.server)
	if hits != 1 || misses != 2 || stale != 0 {
		t.Fatalf("hits=%d misses=%d stale=%d, want 1/2/0 (bump must force a relearn, not a stale serve)",
			hits, misses, stale)
	}
	// The relearned entry carries the new generation: the next packet hits.
	b.e.At(sim.Millisecond, func() { sendOne(b, 4, nil) })
	b.e.RunUntil(2 * sim.Millisecond)
	if hits, _, _ = rxCounters(b.server); hits != 2 {
		t.Fatalf("hits=%d after relearn, want 2", hits)
	}
	if got := sock.Delivered.Value(); got != 4 {
		t.Fatalf("delivered %d, want 4", got)
	}
}

// TestCacheRxPartitionStaleServe: a control-plane-partitioned receiver
// cannot revalidate a version-expired entry; within PartitionStaleBound
// of the entry's build it keeps fast-pathing (counted as stale), beyond
// the bound it falls back to the walk — mirroring the TX cache's
// split-brain discipline.
func TestCacheRxPartitionStaleServe(t *testing.T) {
	b := newRxBed(t)
	sock := b.server.OpenUDP(srvCtrIP, 5001, 2)

	// Learn well before the bump: the walk takes tens of microseconds, and
	// an entry learned after the bump would carry the new generation.
	b.e.At(0, func() { sendOne(b, 1, nil) })
	b.e.At(200*sim.Microsecond, func() {
		b.n.KV.SetPartitioned(serverIP, true)
		b.n.BumpGeneration()
	})
	// Version-expired + partitioned + young: stale serve.
	b.e.At(300*sim.Microsecond, func() { sendOne(b, 2, nil) })
	b.e.RunUntil(sim.Millisecond)
	hits, misses, stale := rxCounters(b.server)
	if hits != 0 || misses != 1 || stale != 1 {
		t.Fatalf("hits=%d misses=%d stale=%d, want 0/1/1", hits, misses, stale)
	}

	// Past PartitionStaleBound the entry is unusable: full walk, relearn.
	beyond := PartitionStaleBound + sim.Millisecond
	b.e.At(beyond, func() { sendOne(b, 3, nil) })
	b.e.RunUntil(beyond + sim.Millisecond)
	_, misses, stale = rxCounters(b.server)
	if misses != 2 || stale != 1 {
		t.Fatalf("misses=%d stale=%d after the bound, want 2/1", misses, stale)
	}
	// Delivery never stops: the fallback walk consults no KV on RX.
	if got := sock.Delivered.Value(); got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
}

// TestCrashRxPurgeDeadHostEvicts: when the failure detector declares the
// outer source host dead, every survivor must drop its RX fast-path
// entries learned from that host's frames — a rebooted host's flows must
// go back through the full walk and relearn, not hit a pre-crash entry.
func TestCrashRxPurgeDeadHostEvicts(t *testing.T) {
	b := newRxBed(t)
	b.server.OpenUDP(srvCtrIP, 5001, 2)

	b.e.At(0, func() { sendOne(b, 1, nil) })
	b.e.RunUntil(sim.Millisecond)
	if got := b.server.rxEntries(); got != 1 {
		t.Fatalf("warm rx cache has %d entries, want 1", got)
	}

	// The server (a survivor here) learns the client died.
	b.server.PurgeDeadHost(clientIP, []proto.IPv4Addr{cliCtrIP})
	if got := b.server.rxEntries(); got != 0 {
		t.Fatalf("rx cache has %d live entries after purge, want 0", got)
	}

	// The client reboots and resumes the flow: miss + relearn, then hits.
	// The relearned entry's born equals the purge clock, so it is valid.
	b.e.At(sim.Millisecond, func() { sendOne(b, 2, nil) })
	b.e.At(2*sim.Millisecond, func() { sendOne(b, 3, nil) })
	b.e.RunUntil(3 * sim.Millisecond)
	hits, misses, _ := rxCounters(b.server)
	if hits != 1 || misses != 2 {
		t.Fatalf("hits=%d misses=%d after reboot, want 1/2 (miss+relearn, then hit)", hits, misses)
	}
	if got := b.server.rxEntries(); got != 1 {
		t.Fatalf("rx cache has %d entries after relearn, want 1", got)
	}
}

// TestCacheLazyEvictionNoScan is the satellite regression for the
// generation-lazy eviction refactor: ReconcileKV and PurgeDeadHost no
// longer walk the caches (O(1) and O(containers) respectively) — the
// maps physically keep their entries until the next lookup touches them,
// but every read path must treat the entries as gone immediately.
func TestCacheLazyEvictionNoScan(t *testing.T) {
	b := newRxBed(t)
	b.server.OpenUDP(srvCtrIP, 5001, 2)

	// Warm 4 TX flows on the client (distinct source ports) and their RX
	// twins on the server.
	const flows = 4
	for i := 0; i < flows; i++ {
		src := uint16(7000 + i)
		b.e.At(sim.Time(i)*10*sim.Microsecond, func() {
			b.client.SendUDP(SendParams{
				From: b.cliCtr, SrcPort: src, DstIP: srvCtrIP, DstPort: 5001,
				Payload: 64, Core: 2, FlowID: uint64(src), Seq: 1,
			})
		})
	}
	b.e.RunUntil(sim.Millisecond)
	if got := b.client.txEntries(); got != flows {
		t.Fatalf("client tx cache has %d entries, want %d", got, flows)
	}
	if got := b.server.rxEntries(); got != flows {
		t.Fatalf("server rx cache has %d entries, want %d", got, flows)
	}
	physTx := len(b.client.flowCaches[2])
	b.client.negCache[srvCtrIP] = negEntry{until: sim.Second,
		kvVersion: b.n.KV.Version(), epoch: b.client.cacheEpoch}

	// ReconcileKV: one epoch bump, no map traversal.
	b.client.ReconcileKV()
	b.server.ReconcileKV()
	if got := len(b.client.flowCaches[2]); got != physTx {
		t.Fatalf("ReconcileKV physically cleared the tx cache (%d -> %d entries): eviction must be lazy",
			physTx, got)
	}
	if got := b.client.txEntries(); got != 0 {
		t.Fatalf("client tx cache has %d live entries after ReconcileKV, want 0", got)
	}
	if got := b.server.rxEntries(); got != 0 {
		t.Fatalf("server rx cache has %d live entries after ReconcileKV, want 0", got)
	}
	// The stale-epoch negative entry is dead too (read paths check epoch).
	if ne, ok := b.client.negCache[srvCtrIP]; ok && ne.epoch == b.client.cacheEpoch {
		t.Fatal("negative-cache entry survived ReconcileKV with a fresh epoch")
	}

	// A lookup lazily evicts: probe one stale key and watch it vanish.
	key := txFlowKey{from: b.cliCtr, dstIP: srvCtrIP, srcPort: 7000, dstPort: 5001,
		ipProto: proto.ProtoUDP, payload: 64}
	if b.client.txLookup(2, key) != nil {
		t.Fatal("txLookup returned an epoch-stale entry")
	}
	if got := len(b.client.flowCaches[2]); got != physTx-1 {
		t.Fatalf("lookup did not lazily evict: physical entries %d, want %d", got, physTx-1)
	}
}
