// Package workload provides the traffic generators and measurement
// harnesses behind every experiment: the standard two-server testbed
// (client + server over a direct 10G/100G link, as in the paper's
// evaluation setup), sockperf-style UDP stress and fixed-rate flows,
// multi-flow and multi-container populations, TCP bulk flows, and the
// hotspot generator used by the adaptability test.
package workload

import (
	"fmt"

	"falcon/internal/audit"
	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
)

// Standard testbed addresses.
var (
	ClientIP = proto.IP4(192, 168, 1, 1)
	ServerIP = proto.IP4(192, 168, 1, 2)
	// SpareIP is the optional third host (TestbedConfig.Spare): the
	// migration target reconfiguration drains the server's containers
	// onto.
	SpareIP = proto.IP4(192, 168, 1, 3)
)

// ContainerIP returns the private IP of container i (1-based) on the
// given side (0 = client side, 1 = server side).
func ContainerIP(side, i int) proto.IPv4Addr {
	return proto.IP4(10, 32, byte(side), byte(i))
}

// TestbedConfig sizes the standard two-host testbed.
type TestbedConfig struct {
	// Kernel selects the cost profile for both hosts.
	Kernel string
	// LinkRate in bits/s (10G or 100G in the paper).
	LinkRate float64
	// Cores per host.
	Cores int
	// Server steering: RSS queue cores and the RPS mask.
	RSSCores, RPSCores []int
	// GRO / InnerGRO on both hosts.
	GRO, InnerGRO bool
	// Containers created per side (client side sends, server side
	// receives). 0 is valid for host-network-only experiments.
	Containers int
	// MTU, when positive, enables IP fragmentation on the inter-host
	// link (default 0: jumbo/GSO mode).
	MTU int
	// Seed for the engine.
	Seed uint64
	// Shards > 1 runs the testbed on a conservative PDES cluster with
	// that many shards: the client lives on shard 0 and the server on
	// shard 1 (extra shards idle — the two-host testbed exposes at most
	// two-way parallelism). 0 or 1 uses the plain serial engine. A
	// negative value (the CLI's -shards auto sentinel) resolves the
	// shard count through sim.AutoShards: one shard per host, and serial
	// when the bed colocates its hosts on one shard.
	Shards int
	// Colocate forces both hosts onto shard 0 even when Shards > 1 —
	// required by workloads whose endpoints share state across hosts
	// (TCP connections and closed-loop RPC apps).
	Colocate bool
	// Spare adds a third host (SpareIP, shard 2) carrying one standby
	// twin per server-side container — the landing zone for a
	// reconfiguration drain of the server. Twins are dark (not in the
	// KV) until a drain remaps them.
	Spare bool
	// RxCache installs the ONCache-style RX decap fast path on every
	// host: warm inner-UDP flows skip the decap stage walk and deliver
	// with a cached cost sum (see internal/overlay/rxcache.go). Off by
	// default — the fast path is the ablation under study, not the
	// baseline.
	RxCache bool
}

// Defaults fills zero fields with the paper's standard setup.
func (c TestbedConfig) withDefaults() TestbedConfig {
	if c.LinkRate == 0 {
		c.LinkRate = 100 * devices.Gbps
	}
	if c.Cores == 0 {
		c.Cores = 12
	}
	if len(c.RSSCores) == 0 {
		c.RSSCores = []int{0}
	}
	if len(c.RPSCores) == 0 {
		c.RPSCores = []int{1}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Testbed is the standard client/server pair, optionally with a spare
// migration-target host.
type Testbed struct {
	E              sim.Sim
	Net            *overlay.Network
	Client, Server *overlay.Host
	// Spare is the standby host (nil unless TestbedConfig.Spare).
	Spare *overlay.Host
	// ClientCtrs and ServerCtrs are the per-side containers; SpareCtrs
	// are the spare host's standby twins (same IPs as ServerCtrs).
	ClientCtrs, ServerCtrs, SpareCtrs []*overlay.Container
	// Audit is non-nil after EnableAudit.
	Audit *audit.Auditor
}

// NewTestbed builds the standard testbed.
func NewTestbed(cfg TestbedConfig) *Testbed {
	cfg = cfg.withDefaults()
	shards := cfg.Shards
	if shards < 0 {
		// Auto: size from the bed's own parallelism. A colocated bed puts
		// every host on shard 0, so sharding cannot help it — resolve
		// against one host, which degrades to the serial engine.
		hosts := 2
		if cfg.Spare {
			hosts = 3
		}
		if cfg.Colocate {
			hosts = 1
		}
		shards, _ = sim.AutoShards(hosts)
	}
	var e sim.Sim
	if shards > 1 {
		e = sim.NewCluster(cfg.Seed, shards, 1)
	} else {
		e = sim.New(cfg.Seed)
	}
	n := overlay.NewNetwork(e)
	mk := func(name string, ip proto.IPv4Addr, shard int) *overlay.Host {
		h := n.AddHost(overlay.HostConfig{
			Name: name, IP: ip, Cores: cfg.Cores,
			RSSCores: cfg.RSSCores, RPSCores: cfg.RPSCores,
			GRO: cfg.GRO, InnerGRO: cfg.InnerGRO, Kernel: cfg.Kernel,
			Shard: shard,
		})
		if cfg.RxCache {
			h.EnableRxCache()
		}
		return h
	}
	serverShard := 1
	if cfg.Colocate {
		serverShard = 0
	}
	tb := &Testbed{E: e, Net: n, Client: mk("client", ClientIP, 0), Server: mk("server", ServerIP, serverShard)}
	n.Connect(tb.Client, tb.Server, cfg.LinkRate, sim.Microsecond)
	if cfg.MTU > 0 {
		tb.Client.LinkTo(ServerIP).MTU = cfg.MTU
		tb.Server.LinkTo(ClientIP).MTU = cfg.MTU
	}
	if cfg.Spare {
		spareShard := 2
		if cfg.Colocate {
			spareShard = 0
		}
		tb.Spare = mk("spare", SpareIP, spareShard)
		n.Connect(tb.Client, tb.Spare, cfg.LinkRate, sim.Microsecond)
		n.Connect(tb.Server, tb.Spare, cfg.LinkRate, sim.Microsecond)
		if cfg.MTU > 0 {
			tb.Client.LinkTo(SpareIP).MTU = cfg.MTU
			tb.Spare.LinkTo(ClientIP).MTU = cfg.MTU
			tb.Server.LinkTo(SpareIP).MTU = cfg.MTU
			tb.Spare.LinkTo(ServerIP).MTU = cfg.MTU
		}
	}
	for i := 1; i <= cfg.Containers; i++ {
		tb.ClientCtrs = append(tb.ClientCtrs,
			tb.Client.AddContainer(fmt.Sprintf("cli-%d", i), ContainerIP(0, i)))
		tb.ServerCtrs = append(tb.ServerCtrs,
			tb.Server.AddContainer(fmt.Sprintf("srv-%d", i), ContainerIP(1, i)))
		if tb.Spare != nil {
			tb.SpareCtrs = append(tb.SpareCtrs,
				tb.Spare.AddStandbyContainer(fmt.Sprintf("srv-%d-twin", i), ContainerIP(1, i)))
		}
	}
	return tb
}

// Hosts returns the testbed's live hosts (2 or 3 with a spare).
func (tb *Testbed) Hosts() []*overlay.Host {
	hosts := []*overlay.Host{tb.Client, tb.Server}
	if tb.Spare != nil {
		hosts = append(hosts, tb.Spare)
	}
	return hosts
}

// EnableFalconOnServer attaches Falcon to the receive-heavy side.
func (tb *Testbed) EnableFalconOnServer(cfg falconcore.Config) *falconcore.Falcon {
	return tb.Server.EnableFalcon(cfg)
}

// Run advances the simulation to the absolute time t.
func (tb *Testbed) Run(t sim.Time) { tb.E.RunUntil(t) }

// Mode names the three configurations every figure compares.
type Mode int

// The paper's three comparison points.
const (
	ModeHost   Mode = iota // native host network, no containers
	ModeCon                // vanilla Docker-style overlay
	ModeFalcon             // overlay with Falcon
)

// String returns the paper's label for the mode.
func (m Mode) String() string {
	switch m {
	case ModeHost:
		return "Host"
	case ModeCon:
		return "Con"
	case ModeFalcon:
		return "Falcon"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}
