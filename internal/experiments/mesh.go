package experiments

import (
	"fmt"

	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
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
	seq     uint64
	stopped bool
	until   sim.Time
}

func (n *meshNode) start(until sim.Time) {
	n.until = until
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
	gap := sim.Time(n.rng.ExpFloat64() * 1e9 / meshRatePPS)
	if gap < 1 {
		gap = 1
	}
	n.host.E.After(gap, n.tick)
}

// buildMesh constructs the ring via the shared fabric builder: host i is
// pinned to shard i%shards (serial engine when shards <= 1), and each
// node's traffic-driver RNG forks at the host's construction point so
// the draw order — and thus the golden output — matches the pre-fabric
// wiring exactly.
func buildMesh(opt Options) (sim.Sim, []*meshNode) {
	nodes := make([]*meshNode, meshHosts)
	fb := buildFabric(opt, fabricConfig{
		Hosts: meshHosts,
		// 8 cores: RSS on 0, RPS to 1, app on 2 — the single-flow layout
		// scaled down to a rack node.
		Cores: 8, RSSCores: []int{0}, RPSCores: []int{1},
		GRO: true, InnerGRO: true,
		LinkRate: meshLinkRate, LinkDelay: meshLinkDelay,
		HostName: func(i int) string { return fmt.Sprintf("m%d", i) },
		HostIP:   func(i int) proto.IPv4Addr { return proto.IP4(192, 168, 2, byte(10+i)) },
		CtrIP:    func(i int) proto.IPv4Addr { return proto.IP4(10, 33, byte(i), 1) },
		Links:    ringLinks(meshHosts),
		OnHost: func(i int, h *overlay.Host, ctr *overlay.Container) {
			nodes[i] = &meshNode{host: h, ctr: ctr, rng: h.Net.E.Rand().Fork()}
		},
	})
	for i, n := range nodes {
		n.dst = nodes[(i+1)%meshHosts].ctr.IP
	}
	// Open sockets after all links exist so rings and KV are complete.
	for _, n := range nodes {
		n.sock = n.host.OpenUDP(n.ctr.IP, meshPort, 2)
	}
	return fb.E, nodes
}

// runMesh builds the ring, starts every node's sender, runs the warm-up,
// resets the measurement counters and runs one measured window. The
// engine comes back parked at the window's end.
func runMesh(opt Options) (sim.Sim, []*meshNode) {
	e, nodes := buildMesh(opt)
	warmup, window := opt.warmup(), opt.window()
	until := warmup + window + 5*sim.Millisecond
	for _, n := range nodes {
		n.start(until)
	}
	e.RunUntil(warmup)
	for _, n := range nodes {
		n.host.ResetMeasurement()
		n.sock.ResetMeasurement()
	}
	e.RunUntil(warmup + window)
	return e, nodes
}

// mesh8 runs the ring for one measured window and reports per-host
// delivery and latency plus the aggregate. With -shards N the same
// byte-identical table is produced by N-way parallel execution — the
// multi-host run BenchmarkMeshShards times.
func mesh8(opt Options) []*stats.Table {
	_, nodes := runMesh(opt)
	window := opt.window()

	t := &stats.Table{
		Title:   fmt.Sprintf("Mesh: %d-host UDP ring, %dB at %dKpps/host over VXLAN (10G, 20us links)", meshHosts, meshPayload, meshRatePPS/1000),
		Columns: []string{"host", "delivered(Kpps)", "p50(us)", "p99(us)", "p99.9(us)", "sock-drops"},
	}
	var total uint64
	agg := stats.NewHistogram()
	for i, n := range nodes {
		s := n.sock.Latency.Summarize()
		d := n.sock.Delivered.Value()
		total += d
		agg.Merge(n.sock.Latency)
		t.AddRow(fmt.Sprintf("m%d", i),
			fKpps(stats.Rate(d, int64(window))), fUs(s.P50), fUs(s.P99), fUs(s.P999),
			fmt.Sprintf("%d", n.sock.SocketDrops.Value()))
	}
	a := agg.Summarize()
	t.AddRow("aggregate", fKpps(stats.Rate(total, int64(window))), fUs(a.P50), fUs(a.P99), fUs(a.P999), "-")
	return []*stats.Table{t}
}
