package faults_test

import (
	"fmt"
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/devices"
	"falcon/internal/faults"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

func TestLinkLossBurstWindow(t *testing.T) {
	e := sim.New(3)
	l := devices.NewLink(e, 100*devices.Gbps, 0)
	delivered := 0
	l.Deliver = func(*skb.SKB) { delivered++ }

	in := faults.NewInjector(e)
	in.Install(faults.Plan{Name: "loss", Items: []faults.Item{
		{At: sim.Millisecond, For: sim.Millisecond,
			Fault: &faults.LinkLossBurst{Link: l, Rate: 1.0}},
	}})

	// One frame before, one inside, one after the window.
	for _, at := range []sim.Time{500 * sim.Microsecond, 1500 * sim.Microsecond, 2500 * sim.Microsecond} {
		e.At(at, func() { l.Send(skb.New(nil, 64)) })
	}
	e.Run()

	if delivered != 2 || l.Lost.Value() != 1 {
		t.Fatalf("delivered %d lost %d, want 2/1", delivered, l.Lost.Value())
	}
	if l.LossRate != 0 {
		t.Fatalf("loss rate not restored: %v", l.LossRate)
	}
	if in.Counters.Injected.Value() != 1 || in.Counters.Cleared.Value() != 1 {
		t.Fatalf("counters: injected %d cleared %d",
			in.Counters.Injected.Value(), in.Counters.Cleared.Value())
	}
}

func TestLinkJitterBurstRestores(t *testing.T) {
	e := sim.New(1)
	l := devices.NewLink(e, 100*devices.Gbps, 0)
	l.Jitter = 7 // pre-existing baseline jitter must survive the window
	in := faults.NewInjector(e)
	in.Install(faults.Plan{Items: []faults.Item{
		{At: 10, For: 10, Fault: &faults.LinkJitterBurst{Link: l, Jitter: 50 * sim.Microsecond}},
	}})
	e.RunUntil(15)
	if l.Jitter != 50*sim.Microsecond {
		t.Fatalf("jitter during window = %v", l.Jitter)
	}
	e.Run()
	if l.Jitter != 7 {
		t.Fatalf("jitter after window = %v, want 7", l.Jitter)
	}
}

func TestCoreStallFreezesAndResumes(t *testing.T) {
	e := sim.New(1)
	m := cpu.NewMachine(e, costmodel.Kernel419(), 2)
	in := faults.NewInjector(e)
	in.Install(faults.Plan{Items: []faults.Item{
		{At: 10 * sim.Microsecond, For: 90 * sim.Microsecond,
			Fault: &faults.CoreStall{M: m, Cores: []int{0}}},
	}})

	var doneAt sim.Time
	// Submitted mid-window: must not start until the stall lifts at 100µs.
	e.At(20*sim.Microsecond, func() {
		m.Core(0).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 1000, func() { doneAt = e.Now() })
	})
	// The other core keeps running — the stall is per-core.
	var peerAt sim.Time
	e.At(20*sim.Microsecond, func() {
		m.Core(1).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 1000, func() { peerAt = e.Now() })
	})
	e.Run()

	want := 100*sim.Microsecond + 1000
	if doneAt != want {
		t.Fatalf("stalled work finished at %v, want %v", doneAt, want)
	}
	if peerAt != 20*sim.Microsecond+1000 {
		t.Fatalf("healthy core delayed: %v", peerAt)
	}
}

func TestCoreStallFinishesInflightWork(t *testing.T) {
	e := sim.New(1)
	m := cpu.NewMachine(e, costmodel.Kernel419(), 1)
	in := faults.NewInjector(e)
	in.Install(faults.Plan{Items: []faults.Item{
		{At: 50, For: 1000, Fault: &faults.CoreStall{M: m, Cores: []int{0}}},
	}})
	var first, second sim.Time
	m.Core(0).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, func() { first = e.Now() })
	m.Core(0).Submit(stats.CtxSoftIRQ, costmodel.FnBridge, 100, func() { second = e.Now() })
	e.Run()
	// The item running when the stall hits completes (non-preemptive);
	// the queued one waits out the window.
	if first != 100 {
		t.Fatalf("in-flight item at %v, want 100", first)
	}
	if second != 1050+100 {
		t.Fatalf("queued item at %v, want %v", second, 1050+100)
	}
}

func TestCoreOfflineVisible(t *testing.T) {
	e := sim.New(1)
	m := cpu.NewMachine(e, costmodel.Kernel419(), 2)
	in := faults.NewInjector(e)
	in.Install(faults.Plan{Items: []faults.Item{
		{At: 10, For: 10, Fault: &faults.CoreOffline{M: m, Cores: []int{1}}},
	}})
	e.RunUntil(15)
	if !m.Core(1).Offline() || m.Core(0).Offline() {
		t.Fatal("offline window not visible on the right core")
	}
	e.Run()
	if m.Core(1).Offline() {
		t.Fatal("core still offline after window")
	}
}

func TestNoisyNeighborBurnsCPU(t *testing.T) {
	e := sim.New(1)
	m := cpu.NewMachine(e, costmodel.Kernel419(), 2)
	in := faults.NewInjector(e)
	in.Install(faults.Plan{Items: []faults.Item{
		{At: sim.Millisecond, For: 10 * sim.Millisecond,
			Fault: &faults.NoisyNeighbor{M: m, Cores: []int{1}, Utilization: 0.5}},
	}})
	e.RunUntil(20 * sim.Millisecond)
	busy := sim.Time(m.Acct.TotalBusy(1))
	// ~50% of the 10ms window, softirq context, victim core only.
	if busy < 4*sim.Millisecond || busy > 6*sim.Millisecond {
		t.Fatalf("noisy neighbor burned %v, want ~5ms", busy)
	}
	if sim.Time(m.Acct.Busy(1, stats.CtxSoftIRQ)) != busy {
		t.Fatal("antagonist load not in softirq context")
	}
	if m.Acct.TotalBusy(0) != 0 {
		t.Fatal("non-victim core burned")
	}
}

// newFaultBed is a minimal two-host overlay for control-plane fault tests.
func newFaultBed(seed uint64) (*sim.Engine, *overlay.Network, *overlay.Host, *overlay.Host, *overlay.Container, *overlay.Container) {
	e := sim.New(seed)
	n := overlay.NewNetwork(e)
	cli := n.AddHost(overlay.HostConfig{Name: "cli", IP: proto.IP4(192, 168, 9, 1), Cores: 8,
		RSSCores: []int{0}, RPSCores: []int{1}, GRO: true, InnerGRO: true})
	srv := n.AddHost(overlay.HostConfig{Name: "srv", IP: proto.IP4(192, 168, 9, 2), Cores: 8,
		RSSCores: []int{0}, RPSCores: []int{1}, GRO: true, InnerGRO: true})
	n.Connect(cli, srv, 100*devices.Gbps, sim.Microsecond)
	cc := cli.AddContainer("cc", proto.IP4(10, 60, 0, 1))
	sc := srv.AddContainer("sc", proto.IP4(10, 60, 0, 2))
	return e, n, cli, srv, cc, sc
}

func TestKVFlakyExhaustsRetriesThenDrops(t *testing.T) {
	e, n, cli, _, cc, sc := newFaultBed(11)
	in := faults.NewInjector(e)
	in.Install(faults.Plan{Items: []faults.Item{
		{At: sim.Millisecond, For: 5 * sim.Millisecond,
			Fault: &faults.KVFlaky{KV: n.KV, FailRate: 1.0}},
	}})
	var ok, called bool
	e.At(2*sim.Millisecond, func() {
		cli.SendUDP(overlay.SendParams{From: cc, SrcPort: 1, DstIP: sc.IP, DstPort: 2,
			Payload: 16, Core: 2, Done: func(v bool) { ok, called = v, true }})
	})
	e.RunUntil(10 * sim.Millisecond)
	if !called || ok {
		t.Fatalf("send under 100%% KV failure: called=%v ok=%v", called, ok)
	}
	if cli.TxResolveDrops.Value() != 1 {
		t.Fatalf("TxResolveDrops = %d, want 1", cli.TxResolveDrops.Value())
	}
	if cli.KVRetries.Value() != 4 {
		t.Fatalf("KVRetries = %d, want 4 (max backoff attempts)", cli.KVRetries.Value())
	}
}

func TestKVFlakyTransientFailureRecovers(t *testing.T) {
	// Latency-only flakiness: every lookup succeeds after paying delay, so
	// the datapath is slowed but loses nothing.
	e, n, cli, srv, cc, sc := newFaultBed(12)
	in := faults.NewInjector(e)
	in.Install(faults.Plan{Items: []faults.Item{
		{At: 0, For: 20 * sim.Millisecond,
			Fault: &faults.KVFlaky{KV: n.KV, Latency: 100 * sim.Microsecond}},
	}})
	sk := srv.OpenUDP(sc.IP, 5001, 2)
	const nPkts = 50
	for i := 0; i < nPkts; i++ {
		seq := uint64(i + 1)
		e.At(sim.Time(i)*20*sim.Microsecond, func() {
			cli.SendUDP(overlay.SendParams{From: cc, SrcPort: 7000, DstIP: sc.IP, DstPort: 5001,
				Payload: 64, Core: 2, FlowID: 1, Seq: seq})
		})
	}
	e.RunUntil(30 * sim.Millisecond)
	if got := sk.Delivered.Value(); got != nPkts {
		t.Fatalf("delivered %d/%d under KV latency", got, nPkts)
	}
	if sk.OrderViols != 0 {
		t.Fatalf("order violations: %d", sk.OrderViols)
	}
}

func TestKVMissNegativeCache(t *testing.T) {
	e, n, cli, _, cc, _ := newFaultBed(13)
	in := faults.NewInjector(e)
	in.Install(faults.Plan{Items: []faults.Item{
		{At: 0, For: 50 * sim.Millisecond, Fault: &faults.KVFlaky{KV: n.KV}},
	}})
	unknown := proto.IP4(10, 99, 0, 9)
	send := func(at sim.Time) {
		e.At(at, func() {
			cli.SendUDP(overlay.SendParams{From: cc, SrcPort: 1, DstIP: unknown, DstPort: 2,
				Payload: 16, Core: 2})
		})
	}
	send(sim.Millisecond)                         // definitive miss → caches the negative
	send(sim.Millisecond + 100*sim.Microsecond)   // within TTL → suppressed
	send(sim.Millisecond + 200*sim.Microsecond)   // still suppressed
	send(sim.Millisecond + 2*overlay.NegCacheTTL) // TTL expired → fresh lookup
	e.RunUntil(20 * sim.Millisecond)
	if got := cli.NegCacheHits.Value(); got != 2 {
		t.Fatalf("NegCacheHits = %d, want 2", got)
	}
	if got := cli.TxResolveDrops.Value(); got != 4 {
		t.Fatalf("TxResolveDrops = %d, want 4", got)
	}
}

// chaosSignature drives one UDP stream through a multi-fault plan and
// digests every observable: delivery count and per-packet delivery
// times, loss, drops, retries. Two runs with the same seed must agree
// exactly.
func chaosSignature(seed uint64) string {
	tb := workload.NewTestbed(workload.TestbedConfig{
		LinkRate: 10 * devices.Gbps, Cores: 12, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1}, GRO: true, InnerGRO: true, Seed: seed,
	})
	link := tb.Client.LinkTo(workload.ServerIP)
	in := faults.NewInjector(tb.E)
	in.Install(faults.Plan{Name: "mix", Items: []faults.Item{
		{At: 2 * sim.Millisecond, For: 2 * sim.Millisecond,
			Fault: &faults.LinkLossBurst{Link: link, Rate: 0.05}},
		{At: 5 * sim.Millisecond, For: 2 * sim.Millisecond,
			Fault: &faults.KVFlaky{KV: tb.Net.KV, Latency: 30 * sim.Microsecond, FailRate: 0.3}},
		{At: 8 * sim.Millisecond, For: 2 * sim.Millisecond,
			Fault: &faults.LinkJitterBurst{Link: link, Jitter: 20 * sim.Microsecond}},
	}})
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 256, 2, 2, 1)
	f.SendAtRate(50_000, 12*sim.Millisecond)

	// FNV-1a over every delivery's (seq, arrival time).
	hash := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			hash ^= (v >> (8 * i)) & 0xff
			hash *= 1099511628211
		}
	}
	f.Sock.OnDeliver = func(s *skb.SKB) {
		mix(s.Seq)
		mix(uint64(tb.E.Now()))
	}
	tb.Run(15 * sim.Millisecond)
	return fmt.Sprintf("d=%d lost=%d nic=%d retries=%d negc=%d h=%x",
		f.Sock.Delivered.Value(), link.Lost.Value(), tb.Server.NIC.Drops.Value(),
		tb.Client.KVRetries.Value(), tb.Client.NegCacheHits.Value(), hash)
}

func TestChaosPlanDeterministic(t *testing.T) {
	a := chaosSignature(42)
	b := chaosSignature(42)
	if a != b {
		t.Fatalf("same seed + same plan diverged:\n  %s\n  %s", a, b)
	}
	if c := chaosSignature(43); c == a {
		t.Logf("different seed produced identical signature (possible but suspicious): %s", c)
	}
}
