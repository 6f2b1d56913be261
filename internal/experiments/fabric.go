package experiments

import (
	"falcon/internal/audit"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/workload"
)

// fabricConfig sizes a multi-host overlay fabric: N identical hosts with
// one container each, wired by a declarative topology. It decouples
// datapath construction from experiment logic — mesh8 and any future
// multi-host experiment share this builder instead of each hand-wiring
// engines, shards, hosts, links and KV state.
type fabricConfig struct {
	Hosts              int
	Cores              int
	RSSCores, RPSCores []int
	GRO, InnerGRO      bool
	LinkRate           float64
	LinkDelay          sim.Time

	// HostName/HostIP/CtrIP address host i and its container.
	HostName func(i int) string
	HostIP   func(i int) proto.IPv4Addr
	CtrIP    func(i int) proto.IPv4Addr

	// Links yields the topology as (a, b) host-index pairs, each
	// connected full-duplex in yield order (link construction forks
	// RNGs, so the order is part of the deterministic schedule).
	Links func(yield func(a, b int))

	// OnHost, when set, observes each host right after it and its
	// container are built — the hook experiments use to attach per-host
	// driver state at the exact construction point (again: RNG forks
	// made here must keep their position in the draw order).
	OnHost func(i int, h *overlay.Host, ctr *overlay.Container)
}

// ringLinks is the standard topology: host i connects to host (i+1)%n.
func ringLinks(n int) func(yield func(a, b int)) {
	return func(yield func(a, b int)) {
		for i := 0; i < n; i++ {
			yield(i, (i+1)%n)
		}
	}
}

// fabric is a built multi-host datapath.
type fabric struct {
	E     sim.Sim
	Net   *overlay.Network
	Hosts []*overlay.Host
	Ctrs  []*overlay.Container
}

// buildFabric constructs the fabric on a serial engine (Shards <= 1) or
// a PDES cluster with host i pinned to shard i%Shards. Everything a host
// owns runs on its own shard; only the inter-host wires cross shards.
func buildFabric(opt Options, cfg fabricConfig) *fabric {
	var e sim.Sim
	if shards, workers := resolveShards(opt.Shards, cfg.Hosts); shards > 1 {
		e = sim.NewCluster(opt.seed(), shards, workers)
	} else {
		e = sim.New(opt.seed())
	}
	net := overlay.NewNetwork(e)
	fb := &fabric{E: e, Net: net}
	for i := 0; i < cfg.Hosts; i++ {
		h := net.AddHost(overlay.HostConfig{
			Name: cfg.HostName(i), IP: cfg.HostIP(i),
			Cores: cfg.Cores, RSSCores: cfg.RSSCores, RPSCores: cfg.RPSCores,
			GRO: cfg.GRO, InnerGRO: cfg.InnerGRO, Kernel: opt.Kernel,
			Shard: i,
		})
		if opt.RxCache {
			h.EnableRxCache()
		}
		ctr := h.AddContainer(cfg.HostName(i)+"-c1", cfg.CtrIP(i))
		fb.Hosts = append(fb.Hosts, h)
		fb.Ctrs = append(fb.Ctrs, ctr)
		if cfg.OnHost != nil {
			cfg.OnHost(i, h, ctr)
		}
	}
	cfg.Links(func(a, b int) {
		net.Connect(fb.Hosts[a], fb.Hosts[b], cfg.LinkRate, cfg.LinkDelay)
	})
	if opt.MaxEvents > 0 {
		e.SetEventBudget(opt.MaxEvents)
	}
	if opt.Audit {
		opt.track(workload.AuditHosts(e, fb.Hosts, audit.Config{}))
	}
	return fb
}
