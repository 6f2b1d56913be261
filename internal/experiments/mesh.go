package experiments

import (
	"fmt"

	"falcon/internal/audit"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

func init() {
	register("mesh8", "Mesh: 8-host UDP ring over VXLAN (multi-host PDES showcase)", mesh8)
}

// Mesh topology parameters. Eight hosts in a ring is the smallest
// topology where every PDES shard both sends and receives cross-shard
// traffic and no shard is idle; the 20 µs inter-host delay is a
// rack-scale RTT that gives the cluster a generous lookahead window
// (thousands of per-host events per synchronization barrier).
const (
	meshHosts     = 8
	meshPayload   = 256
	meshRatePPS   = 150_000
	meshLinkDelay = 20 * sim.Microsecond
	meshLinkRate  = 10 * devices.Gbps
	meshPort      = 5001
)

// meshNode is one host of the ring plus its traffic driver state.
type meshNode struct {
	host *overlay.Host
	ctr  *overlay.Container
	sock *socket.Socket

	// Sender side: Poisson process toward the next host's container.
	dst     proto.IPv4Addr
	rng     *sim.Rand
	gap     sim.Slots // the gap before the next send
	seq     uint64
	stopped bool
	until   sim.Time

	// Counts when the measured window began: a window's count is its
	// end read minus these.
	delivered0, sockDrops0, hits0, misses0 uint64
}

func (n *meshNode) start(until sim.Time) {
	n.until = until
	n.gap = n.host.E.NewSlots(1, func(int) { n.tick() })
	n.tick()
}

func (n *meshNode) tick() {
	if n.stopped || n.host.E.Now() >= n.until {
		return
	}
	n.seq++
	n.host.SendUDP(overlay.SendParams{
		From: n.ctr, SrcPort: 7000, DstIP: n.dst, DstPort: meshPort,
		Payload: meshPayload, Core: 2, FlowID: uint64(n.ctr.Host.IP), Seq: n.seq,
	})
	n.gap.Set(0, n.host.E.Now()+workload.PoissonArrivals{Rate: meshRatePPS}.NextGap(n.rng))
}

// meshSim returns the engine the ring runs on: a serial engine
// (Shards <= 1) or a PDES cluster.
func meshSim(opt Options) sim.Sim {
	if shards, workers := resolveShards(opt.Shards, meshHosts); shards > 1 {
		return sim.NewCluster(opt.seed(), shards, workers)
	}
	return sim.New(opt.seed())
}

// buildMesh constructs the ring on e with host i pinned to shard
// i%shards: everything a host owns runs on its own shard, and only the
// inter-host wires cross shards. Each node's traffic-driver RNG forks
// right after its host and container are built, and link construction
// forks RNGs too, so the order below is part of the deterministic
// schedule the goldens pin.
func buildMesh(e sim.Sim, opt Options) []*meshNode {
	net := overlay.NewNetwork(e)
	nodes := make([]*meshNode, meshHosts)
	for i := range nodes {
		h := net.AddHost(overlay.HostConfig{
			Name: fmt.Sprintf("m%d", i), IP: proto.IP4(192, 168, 2, byte(10+i)),
			// 8 cores: RSS on 0, RPS to 1, app on 2 — the single-flow
			// layout scaled down to a rack node.
			Cores: 8, RSSCores: []int{0}, RPSCores: []int{1},
			GRO: true, InnerGRO: true, Kernel: opt.Kernel, Shard: i,
		})
		if opt.RxCache {
			h.EnableRxCache()
		}
		ctr := h.AddContainer(fmt.Sprintf("m%d-c1", i), proto.IP4(10, 33, byte(i), 1))
		nodes[i] = &meshNode{host: h, ctr: ctr, rng: e.Rand().Fork()}
	}
	for i, n := range nodes {
		next := nodes[(i+1)%meshHosts]
		net.Connect(n.host, next.host, meshLinkRate, meshLinkDelay)
		n.dst = next.ctr.IP
	}
	if opt.MaxEvents > 0 {
		e.SetEventBudget(opt.MaxEvents)
	}
	if opt.Audit {
		opt.track(workload.AuditHosts(e, net.Hosts(), audit.Config{}))
	}
	// Open sockets after all links exist so rings and KV are complete.
	for _, n := range nodes {
		n.sock = n.host.OpenUDP(n.ctr.IP, meshPort, 2)
	}
	return nodes
}

// runMesh builds the ring on e, starts every node's sender, runs the
// warm-up, reads every node's counts and starts its latency window, and
// runs one measured window. The engine comes back parked at the window's
// end.
func runMesh(e sim.Sim, opt Options) []*meshNode {
	nodes := buildMesh(e, opt)
	warmup, window := opt.warmup(), opt.window()
	until := warmup + window + 5*sim.Millisecond
	for _, n := range nodes {
		n.start(until)
	}
	e.RunUntil(warmup)
	for _, n := range nodes {
		n.sock.Latency.Reset()
		n.delivered0, n.sockDrops0 = n.sock.Delivered.Value(), n.sock.SocketDrops.Value()
		n.hits0, n.misses0 = n.host.RxCacheHits.Value(), n.host.RxCacheMisses.Value()+n.host.RxCacheStale.Value()
	}
	e.RunUntil(warmup + window)
	return nodes
}

// mesh8 runs the ring for one measured window and reports per-host
// delivery and latency plus the aggregate. With -shards N the same
// byte-identical table is produced by N-way parallel execution — the
// multi-host run BenchmarkMeshShards times.
func mesh8(opt Options) []*stats.Table {
	nodes := runMesh(meshSim(opt), opt)
	window := opt.window()

	t := &stats.Table{
		Title:   fmt.Sprintf("Mesh: %d-host UDP ring, %dB at %dKpps/host over VXLAN (10G, 20us links)", meshHosts, meshPayload, meshRatePPS/1000),
		Columns: []string{"host", "delivered(Kpps)", "p50(us)", "p99(us)", "p99.9(us)", "sock-drops"},
	}
	var total uint64
	agg := stats.NewHistogram()
	for i, n := range nodes {
		s := n.sock.Latency.Summarize()
		d := n.sock.Delivered.Value() - n.delivered0
		total += d
		agg.Merge(n.sock.Latency)
		t.AddRow(stats.Text(fmt.Sprintf("m%d", i)),
			fKpps(stats.Rate(d, int64(window))), fUs(s.P50), fUs(s.P99), fUs(s.P999),
			fCount(n.sock.SocketDrops.Value()-n.sockDrops0))
	}
	a := agg.Summarize()
	t.AddRow(stats.Text("aggregate"), fKpps(stats.Rate(total, int64(window))), fUs(a.P50), fUs(a.P99), fUs(a.P999), stats.Text("-"))
	return []*stats.Table{t}
}
