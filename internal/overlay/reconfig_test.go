package overlay

import (
	"testing"

	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/sim"
)

var spareIP = proto.IP4(192, 168, 1, 3)

// newDrainBed is newBed plus a spare host carrying a standby twin of the
// server container — the topology a graceful drain migrates across.
func newDrainBed(t *testing.T) (*bed, *Host, *Container) {
	t.Helper()
	b := newBed(t, "", 100*devices.Gbps)
	spare := b.n.AddHost(HostConfig{
		Name: "spare", IP: spareIP, Cores: 8,
		RSSCores: []int{0}, RPSCores: []int{1}, GRO: true, InnerGRO: true,
	})
	b.n.Connect(b.client, spare, 100*devices.Gbps, sim.Microsecond)
	b.n.Connect(b.server, spare, 100*devices.Gbps, sim.Microsecond)
	twin := spare.AddStandbyContainer("c-srv-twin", srvCtrIP)
	return b, spare, twin
}

// sendOne transmits a single container UDP packet at the current time
// and reports (via Done) whether it made it onto the wire.
func sendOne(b *bed, seq uint64, done func(ok bool)) {
	b.client.SendUDP(SendParams{
		From: b.cliCtr, SrcPort: 7000, DstIP: srvCtrIP, DstPort: 5001,
		Payload: 64, Core: 2, FlowID: 1, Seq: seq, Done: done,
	})
}

// TestFlowCacheGenerationInvalidation: a generation bump that never
// touches the KV store (the steering-flip/topology-membership class of
// swap) must still invalidate cached transmit flows.
func TestFlowCacheGenerationInvalidation(t *testing.T) {
	b := newBed(t, "", 100*devices.Gbps)
	b.server.OpenUDP(srvCtrIP, 5001, 2)

	b.e.At(0, func() { sendOne(b, 1, nil) })
	b.e.RunUntil(sim.Millisecond)
	if got := b.client.txEntries(); got != 1 {
		t.Fatalf("flow cache has %d entries, want 1", got)
	}
	// sendOne transmits from core 2, so the entry lives in core 2's table.
	var before *txFlowEntry
	for _, e := range b.client.flowCaches[2] {
		before = e
	}
	if before.gen != b.n.Generation() {
		t.Fatalf("cached gen %d != network gen %d", before.gen, b.n.Generation())
	}

	// Same flow again without a bump: the entry must be reused.
	b.e.At(sim.Millisecond, func() { sendOne(b, 2, nil) })
	b.e.RunUntil(2 * sim.Millisecond)
	for _, e := range b.client.flowCaches[2] {
		if e != before {
			t.Fatal("cache entry rebuilt without any configuration change")
		}
	}

	// Bump the generation (no KV mutation): next send must rebuild.
	b.n.BumpGeneration()
	b.e.At(2*sim.Millisecond, func() { sendOne(b, 3, nil) })
	b.e.RunUntil(3 * sim.Millisecond)
	for _, e := range b.client.flowCaches[2] {
		if e == before {
			t.Fatal("stale flow-cache entry survived a generation bump")
		}
		if e.gen != b.n.Generation() {
			t.Fatalf("rebuilt entry gen %d != network gen %d", e.gen, b.n.Generation())
		}
	}
}

// TestDrainedHostNotSteeredTo is the post-swap steering regression: once
// a drain remaps the server container onto the spare's standby twin, a
// warm transmit flow cache must not put a single further frame on the
// wire toward the drained host.
func TestDrainedHostNotSteeredTo(t *testing.T) {
	b, spare, twin := newDrainBed(t)
	b.server.OpenUDP(srvCtrIP, 5001, 2)
	twinSock := spare.OpenUDP(srvCtrIP, 5001, 2)

	const warm = 50
	for i := 0; i < warm; i++ {
		seq := uint64(i + 1)
		b.e.At(sim.Time(i)*5*sim.Microsecond, func() { sendOne(b, seq, nil) })
	}
	b.e.RunUntil(2 * sim.Millisecond)
	toServer := b.client.LinkTo(serverIP).Sent.Value()
	if toServer != warm {
		t.Fatalf("warm phase: %d frames toward server, want %d", toServer, warm)
	}

	// The drain swap, exactly as the reconfig manager applies it: mapping
	// removed, generation bumped, twin landed (in-transit window elided —
	// steering correctness is about the post-swap state).
	b.e.At(2*sim.Millisecond, func() {
		b.n.KV.Delete(srvCtrIP)
		b.n.BumpGeneration()
		b.n.KV.Put(srvCtrIP, twin.Endpoint())
	})
	for i := 0; i < warm; i++ {
		seq := uint64(warm + i + 1)
		b.e.At(2*sim.Millisecond+sim.Time(i+1)*5*sim.Microsecond, func() { sendOne(b, seq, nil) })
	}
	b.e.RunUntil(5 * sim.Millisecond)

	if got := b.client.LinkTo(serverIP).Sent.Value(); got != toServer {
		t.Fatalf("drained host received %d new frames after the swap", got-toServer)
	}
	if got := b.client.LinkTo(spareIP).Sent.Value(); got != warm {
		t.Fatalf("spare link carried %d frames, want %d", got, warm)
	}
	if got := twinSock.Delivered.Value(); got != warm {
		t.Fatalf("twin socket delivered %d, want %d", got, warm)
	}
}

// TestPurgeDeadHostEvictsCaches: when the failure detector declares a
// host dead, every survivor's cached route to it — container flow-cache
// entries resolving onto the dead host, host-network entries addressed
// to it, and negative-cache entries for its containers — must go at
// once; cached routes to other hosts survive.
func TestCrashPurgeDeadHostEvictsCaches(t *testing.T) {
	b, spare, _ := newDrainBed(t)
	b.server.OpenUDP(srvCtrIP, 5001, 2)

	// Warm three flows: container → dead host, host-network → dead host,
	// host-network → surviving spare.
	b.e.At(0, func() {
		sendOne(b, 1, nil)
		b.client.SendUDP(SendParams{SrcPort: 9000, DstIP: serverIP, DstPort: 9001,
			Payload: 64, Core: 2, FlowID: 2, Seq: 1})
		b.client.SendUDP(SendParams{SrcPort: 9000, DstIP: spare.IP, DstPort: 9001,
			Payload: 64, Core: 2, FlowID: 3, Seq: 1})
	})
	b.e.RunUntil(sim.Millisecond)
	if got := b.client.txEntries(); got != 3 {
		t.Fatalf("warm flow cache has %d entries, want 3", got)
	}
	// And a negative-cache entry for the dead host's container.
	b.client.negCache[srvCtrIP] = negEntry{until: sim.Second,
		kvVersion: b.n.KV.Version(), epoch: b.client.cacheEpoch}

	b.client.PurgeDeadHost(serverIP, []proto.IPv4Addr{srvCtrIP})

	if got := b.client.txEntries(); got != 1 {
		t.Fatalf("flow cache has %d live entries after purge, want 1 (spare only)", got)
	}
	for k, e := range b.client.flowCaches[2] {
		if b.client.deadAt[e.info.HostIP] > e.born {
			continue // lazily dead, evicted on next lookup
		}
		if k.dstIP != spare.IP {
			t.Fatalf("surviving flow-cache entry points at %v, want %v", k.dstIP, spare.IP)
		}
	}
	if _, ok := b.client.negCache[srvCtrIP]; ok {
		t.Fatal("negative-cache entry for the dead host's container survived the purge")
	}
	// The purge is generation-lazy: dead entries are physically evicted by
	// the next lookup that touches them, not by a scan at declare time.
	if b.client.txLookup(2, txFlowKey{from: b.cliCtr, dstIP: srvCtrIP,
		srcPort: 7000, dstPort: 5001, ipProto: proto.ProtoUDP, payload: 64}) != nil {
		t.Fatal("txLookup returned an entry routing through the dead host")
	}
}

// TestPartitionStaleServeAndReconcile drives the split-brain transmit
// path end to end: fresh entries transmit normally, a version-expired
// entry serves stale within PartitionStaleBound, beyond the bound the
// flow falls into retry/backoff and negative caching, and the heal's
// reconciliation restores real resolution — with every delivery counted
// exactly once.
func TestCrashPartitionStaleServeAndReconcile(t *testing.T) {
	b := newBed(t, "", 100*devices.Gbps)
	sock := b.server.OpenUDP(srvCtrIP, 5001, 2)

	// Warm the flow, then partition the client.
	b.e.At(0, func() { sendOne(b, 1, nil) })
	b.e.At(10*sim.Microsecond, func() { b.n.KV.SetPartitioned(b.client.IP, true) })

	// Fresh entry: transmits normally, no stale serve counted.
	b.e.At(20*sim.Microsecond, func() { sendOne(b, 2, nil) })

	// A generation bump the partitioned host cannot resolve around:
	// the entry is now version-expired but young — it serves stale.
	b.e.At(30*sim.Microsecond, func() { b.n.BumpGeneration() })
	b.e.At(40*sim.Microsecond, func() { sendOne(b, 3, nil) })
	b.e.RunUntil(sim.Millisecond)
	if got := b.client.StaleServes.Value(); got != 1 {
		t.Fatalf("stale serves = %d, want 1", got)
	}

	// Past the staleness bound the entry is unusable: the send retries
	// with backoff, fails definitively, and leaves a negative entry.
	b.e.At(6*sim.Millisecond, func() {
		sendOne(b, 4, func(ok bool) {
			if ok {
				t.Error("send beyond the staleness bound succeeded while partitioned")
			}
		})
	})
	b.e.RunUntil(7 * sim.Millisecond)
	if got := b.client.TxResolveDrops.Value(); got != 1 {
		t.Fatalf("resolve drops = %d, want 1", got)
	}
	if got := b.client.KVRetries.Value(); got == 0 {
		t.Fatal("partitioned miss never retried")
	}
	b.e.At(7*sim.Millisecond, func() { sendOne(b, 5, nil) })
	b.e.RunUntil(8 * sim.Millisecond)
	if got := b.client.NegCacheHits.Value(); got != 1 {
		t.Fatalf("negative-cache hits = %d, want 1", got)
	}
	// The suppressed send is a counted resolve drop, not silent loss.
	if got := b.client.TxResolveDrops.Value(); got != 2 {
		t.Fatalf("resolve drops after the negative-cache hit = %d, want 2", got)
	}

	// Heal: partition lifts, caches reconcile, resolution is real again.
	b.e.At(8*sim.Millisecond, func() {
		b.n.KV.SetPartitioned(b.client.IP, false)
		b.client.ReconcileKV()
	})
	b.e.At(8*sim.Millisecond+10*sim.Microsecond, func() {
		sendOne(b, 6, func(ok bool) {
			if !ok {
				t.Error("send after heal failed to resolve")
			}
		})
	})
	b.e.RunUntil(10 * sim.Millisecond)
	// Exactly the four transmittable sends delivered — no duplicates.
	if got := sock.Delivered.Value(); got != 4 {
		t.Fatalf("delivered %d, want 4", got)
	}
}

// nullFault is a LookupFault that neither delays nor fails: it forces
// the degraded per-packet resolution path (where the negative cache
// lives) without perturbing timing.
type nullFault struct{}

func (nullFault) Lookup(_, _ proto.IPv4Addr) (sim.Time, bool) { return 0, false }

// TestNegCachePurgedByRemap: a definitive KV miss recorded while a
// container is in transit between hosts (drain window) must die with the
// Put that lands the container — recovery is bounded by the remap
// itself, not by NegCacheTTL.
func TestNegCachePurgedByRemap(t *testing.T) {
	b, spare, twin := newDrainBed(t)
	twinSock := spare.OpenUDP(srvCtrIP, 5001, 2)
	b.n.KV.SetFault(nullFault{})

	// Drain begins: the mapping disappears while the container is in
	// transit.
	b.e.At(0, func() { b.n.KV.Delete(srvCtrIP) })

	// A send during the transit window records the definitive miss...
	b.e.At(10*sim.Microsecond, func() {
		sendOne(b, 1, func(ok bool) {
			if ok {
				t.Error("send during transit window succeeded")
			}
		})
	})
	// ...and a second one must be served from the negative cache.
	b.e.At(20*sim.Microsecond, func() { sendOne(b, 2, nil) })
	b.e.RunUntil(30 * sim.Microsecond)
	if got := b.client.NegCacheHits.Value(); got != 1 {
		t.Fatalf("negative-cache hits = %d, want 1", got)
	}
	// The suppressed send is a counted resolve drop, not silent loss.
	if got := b.client.TxResolveDrops.Value(); got != 2 {
		t.Fatalf("resolve drops after the negative-cache hit = %d, want 2", got)
	}
	if got := b.client.TxResolveDrops.Value(); got != 2 {
		t.Fatalf("resolve drops = %d, want 2", got)
	}

	// The container lands on the spare. The very next send — still deep
	// inside the 2ms NegCacheTTL — must resolve and deliver immediately:
	// the KV version pin invalidates the stale negative entry.
	landAt := 200 * sim.Microsecond
	b.e.At(landAt, func() { b.n.KV.Put(srvCtrIP, twin.Endpoint()) })
	recoverAt := landAt + 10*sim.Microsecond
	if recoverAt >= NegCacheTTL {
		t.Fatalf("test geometry broken: recovery probe at %v not inside TTL %v", recoverAt, NegCacheTTL)
	}
	b.e.At(recoverAt, func() {
		sendOne(b, 3, func(ok bool) {
			if !ok {
				t.Error("send after remap blackholed by stale negative cache")
			}
		})
	})
	b.e.RunUntil(2 * sim.Millisecond)
	if got := twinSock.Delivered.Value(); got != 1 {
		t.Fatalf("twin delivered %d, want 1 (post-remap packet)", got)
	}
	if got := b.client.NegCacheHits.Value(); got != 1 {
		t.Fatalf("negative-cache hits after remap = %d, want 1 (no further hits)", got)
	}
}

// delayFault is a LookupFault that delays every attempt by d and never
// fails.
type delayFault struct{ d sim.Time }

func (f delayFault) Lookup(_, _ proto.IPv4Addr) (sim.Time, bool) { return f.d, false }

// TestCrashDuringFaultedLookup: a host that dies while a send waits on a
// slow KV lookup must not transmit once the lookup returns. The send
// ends as a counted crash drop and reports failure; nothing reaches the
// server.
func TestCrashDuringFaultedLookup(t *testing.T) {
	b := newBed(t, "", 100*devices.Gbps)
	sock := b.server.OpenUDP(srvCtrIP, 5001, 2)
	b.n.KV.SetFault(delayFault{d: 100 * sim.Microsecond})
	var done []bool
	b.e.At(0, func() { sendOne(b, 1, func(ok bool) { done = append(done, ok) }) })
	b.e.At(50*sim.Microsecond, func() { b.client.Crash() })
	b.e.RunUntil(sim.Millisecond)
	if len(done) != 1 || done[0] {
		t.Fatalf("Done calls = %v, want exactly one false", done)
	}
	if got := b.client.CrashDrops.Value(); got != 1 {
		t.Fatalf("crash drops = %d, want 1", got)
	}
	if got := sock.Delivered.Value(); got != 0 {
		t.Fatalf("delivered %d, want 0", got)
	}
	if got := b.client.TxPending(); got != 0 {
		t.Fatalf("tx pending = %d, want 0", got)
	}
}
