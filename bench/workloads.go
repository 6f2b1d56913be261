package main

import (
	"fmt"

	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/transport"
	wl "falcon/internal/workload"
)

// Every workload warms up for the same simulated time before its window
// opens: long enough for rings, backlogs, flow caches and TCP windows to
// reach steady state at the offered loads below.
const warmup = 15 * sim.Millisecond

// The two-host workloads use the paper's single-flow core layout: the NIC
// queue on core 0, RPS to core 1, the application thread on core 2, and
// FALCON_CPUS 3-5.
const appCore = 2

var falconCPUs = []int{3, 4, 5}

// workload is one benchmark input. Its shape is fixed; the seed is the
// only free parameter, and every offered load is an absolute number so a
// change that raises capacity cannot also change the load it is tested
// under.
type workload struct {
	name string
	// window is the measured span of simulated time after warmup.
	window sim.Time
	// build constructs the bed and starts its generators; they stop
	// sending by themselves at until, except TCP senders, which run until
	// their connections close. serial forces the serial engine on a
	// workload that would otherwise shard.
	build func(seed uint64, until sim.Time, serial bool) *bed
}

// bed is one built workload: the simulation and the endpoints whose
// public counters the benchmark reads.
type bed struct {
	e     sim.Sim
	hosts []*overlay.Host
	// rx are the hosts whose receive path the workload loads, each with
	// the application sockets it carries.
	rx    []rxHost
	conns []*transport.Conn
	ol    *wl.OpenLoop
}

type rxHost struct {
	h     *overlay.Host
	socks []*socket.Socket
}

var workloads = []*workload{
	// Fig. 10 stress at the smallest packet size, where per-packet cost
	// dominates: the full three-softirq overlay walk plus Falcon's
	// cross-core hand-offs on every packet.
	{name: "udp-flood-falcon", window: 300 * sim.Millisecond, build: buildFlood},
	// Warm flows below saturation with the RX decap cache on: the
	// device-stage walk is bypassed, so p99 measures queueing rather than
	// a full socket queue.
	{name: "udp-rxcache-fixed", window: 1500 * sim.Millisecond, build: buildRxCache},
	// Thousands of short heavy-tailed flows churning through the overlay
	// and the open-loop generator instead of staying warm.
	{name: "udp-openloop-churn", window: 1000 * sim.Millisecond, build: buildChurn},
	// The only workload with ACK-clocked (closed-loop) traffic in both
	// directions, GRO coalescing and the transport layer.
	{name: "tcp-bulk-falcon", window: 300 * sim.Millisecond, build: buildTCP},
	// The only workload where the sharded engine's barriers, cross-shard
	// drains and SKB rehoming do work.
	{name: "mesh16-auto", window: 200 * sim.Millisecond, build: buildMesh},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newTwoHost builds the standard client/server pair on the serial engine
// (which colocates both hosts, as TCP endpoints require).
func newTwoHost(seed uint64, rxCache bool) *wl.Testbed {
	return wl.NewTestbed(wl.TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1}, GRO: true, InnerGRO: true,
		Seed: seed, RxCache: rxCache,
	})
}

func twoHostBed(tb *wl.Testbed, socks ...*socket.Socket) *bed {
	return &bed{e: tb.E, hosts: tb.Hosts(), rx: []rxHost{{h: tb.Server, socks: socks}}}
}

// buildFlood: 3 clients flood one server socket with 16 B UDP over 100G,
// Falcon on the server.
func buildFlood(seed uint64, until sim.Time, _ bool) *bed {
	tb := newTwoHost(seed, false)
	tb.EnableFalconOnServer(falconcore.DefaultConfig(falconCPUs))
	sock, _ := tb.StressFlood(true, 3, 16, appCore, until)
	return twoHostBed(tb, sock)
}

// buildRxCache: 64 Poisson UDP flows x 4 Kpps = 256 Kpps of 64 B over 8
// server sockets, vanilla overlay with the RX cache on.
func buildRxCache(seed uint64, until sim.Time, _ bool) *bed {
	const flows, ports = 64, 8
	tb := newTwoHost(seed, true)
	ctr, dst := tb.ClientCtrs[0], tb.ServerCtrs[0].IP
	first := make([]*wl.UDPFlow, ports)
	var socks []*socket.Socket
	for i := 0; i < flows; i++ {
		p, core, id := i%ports, 2+i%8, uint64(i+1)
		var f *wl.UDPFlow
		if first[p] == nil {
			f = tb.NewUDPFlow(ctr, dst, uint16(7000+i), uint16(5001+p), 64, core, appCore, id)
			first[p] = f
			socks = append(socks, f.Sock)
		} else {
			// A clone shares the port's socket; its own source port makes
			// it a distinct flow.
			f = first[p].Clone(core, id)
			f.SrcPort = uint16(7000 + i)
		}
		f.SendAtRate(4000, until)
	}
	return twoHostBed(tb, socks...)
}

// buildChurn: the abl-tail population shape — Pareto(alpha 1.5, mean 12
// packets) flow sizes, MMPP flow arrivals, 256 B packets, vanilla
// overlay — at a fixed 160 Kpps with every flow paced at 1 Kpps. Many
// slow flows live at once, so the aggregate load is smooth and MMPP
// bursts stay below the receive core's capacity: at abl-tail's 20 Kpps
// per flow and 240 Kpps, a few concurrent flows push the core into
// overload episodes, and whether one happens decides p99 — it varied by
// a factor of five between seeds.
func buildChurn(seed uint64, until sim.Time, _ bool) *bed {
	const offeredPPS, meanPkts, alpha = 160_000.0, 12.0, 1.5
	tb := newTwoHost(seed, false)
	flowsPerSec := offeredPPS / meanPkts
	ol := tb.StartOpenLoop(wl.OpenLoopConfig{
		Arrivals: &wl.MMPP2{
			CalmRate: 0.5 * flowsPerSec, BurstRate: 1.5 * flowsPerSec,
			MeanCalm: 500 * sim.Microsecond, MeanBurst: 500 * sim.Microsecond,
		},
		FlowSize:   wl.Pareto{Xm: meanPkts * (alpha - 1) / alpha, Alpha: alpha},
		PacketSize: 256,
		FlowRate:   1_000,
		Ports:      2,
		SendCores:  []int{2, 3},
		AppCore:    appCore,
		Ctr:        1,
	}, until)
	b := twoHostBed(tb, ol.Socks...)
	b.ol = ol
	return b
}

// buildTCP: 4 bulk TCP connections of 4096 B messages, Falcon on the
// server. The senders are ACK-clocked and run until closed. TCP itself
// draws nothing random, so the seed sets when each connection starts
// sending, within the first millisecond.
func buildTCP(seed uint64, _ sim.Time, _ bool) *bed {
	tb := newTwoHost(seed, false)
	tb.EnableFalconOnServer(falconcore.DefaultConfig(falconCPUs))
	rng := tb.E.Rand().Fork()
	var conns []*transport.Conn
	var socks []*socket.Socket
	for i := 0; i < 4; i++ {
		c, err := transport.Dial(transport.Config{
			Net:        tb.Net,
			SenderHost: tb.Client, SenderCtr: tb.ClientCtrs[0],
			SenderCore: 2 + i%3, SrcPort: uint16(40000 + i),
			ReceiverHost: tb.Server, ReceiverCtr: tb.ServerCtrs[0],
			AppCore: appCore, DstPort: uint16(5200 + i),
			MsgSize: 4096, FlowID: uint64(i + 1),
		}, 0)
		if err != nil {
			panic(err) // the configuration above is static
		}
		tb.E.At(sim.Time(rng.Intn(int(sim.Millisecond))), c.StartContinuous)
		conns = append(conns, c)
		socks = append(socks, c.Socket())
	}
	b := twoHostBed(tb, socks...)
	b.conns = conns
	return b
}

// Mesh shape: a 16-host ring where every host sends 256 B Poisson UDP at
// 150 Kpps to the next host's container over 10G links with 20 us delay.
const (
	meshHosts = 16
	meshPort  = 5001
	meshPPS   = 150_000
)

// buildMesh resolves the engine the way -shards auto does; serial forces
// the serial engine (the traced pass's speedup reference). Both engines
// fork the seed's RNG in the same order, so they run the same schedule.
func buildMesh(seed uint64, until sim.Time, serial bool) *bed {
	shards, workers := 1, 1
	if !serial {
		shards, workers = sim.AutoShards(meshHosts)
	}
	var e sim.Sim
	if shards > 1 {
		e = sim.NewCluster(seed, shards, workers)
	} else {
		e = sim.New(seed)
	}
	net := overlay.NewNetwork(e)
	b := &bed{e: e}
	nodes := make([]*meshNode, meshHosts)
	for i := range nodes {
		h := net.AddHost(overlay.HostConfig{
			Name: fmt.Sprintf("m%d", i), IP: proto.IP4(192, 168, 2, byte(10+i)),
			Cores: 8, RSSCores: []int{0}, RPSCores: []int{1},
			GRO: true, InnerGRO: true, Shard: i,
		})
		ctr := h.AddContainer(fmt.Sprintf("m%d-c1", i), proto.IP4(10, 33, byte(i), 1))
		n := &meshNode{host: h, ctr: ctr, rng: e.Rand().Fork(), until: until}
		n.next = n.tick
		nodes[i] = n
		b.hosts = append(b.hosts, h)
	}
	for i, n := range nodes {
		next := nodes[(i+1)%meshHosts]
		net.Connect(n.host, next.host, 10*devices.Gbps, 20*sim.Microsecond)
		n.dst = next.ctr.IP
	}
	// Sockets open once every link exists, so the KV store is complete.
	for _, n := range nodes {
		sock := n.host.OpenUDP(n.ctr.IP, meshPort, appCore)
		b.rx = append(b.rx, rxHost{h: n.host, socks: []*socket.Socket{sock}})
	}
	for _, n := range nodes {
		n.tick()
	}
	return b
}

// meshNode is one ring host's Poisson sender.
type meshNode struct {
	host  *overlay.Host
	ctr   *overlay.Container
	dst   proto.IPv4Addr
	rng   *sim.Rand
	seq   uint64
	until sim.Time
	next  func() // n.tick, bound once so the per-packet schedule does not allocate
}

func (n *meshNode) tick() {
	if n.host.E.Now() >= n.until {
		return
	}
	n.seq++
	n.host.SendUDP(overlay.SendParams{
		From: n.ctr, SrcPort: 7000, DstIP: n.dst, DstPort: meshPort,
		Payload: 256, Core: 2, FlowID: uint64(n.ctr.Host.IP), Seq: n.seq,
	})
	gap := sim.Time(n.rng.ExpFloat64() * 1e9 / meshPPS)
	if gap < 1 {
		gap = 1
	}
	n.host.E.After(gap, n.next)
}
