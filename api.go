// Package falcon is a faithful, fully simulated reproduction of
// "Parallelizing Packet Processing in Container Overlay Networks"
// (EuroSys 2021): the Falcon system — softirq pipelining, softirq
// splitting, and dynamic two-choice balancing for VXLAN container
// overlay networks — together with every substrate it runs on: a
// deterministic discrete-event multi-core kernel datapath (NAPI, RSS,
// RPS, GRO, per-CPU backlogs), byte-accurate VXLAN encapsulation, a
// Reno-style TCP, container/bridge/veth topologies, and the paper's
// workloads (sockperf, memcached, CloudSuite web serving).
//
// This package is the public facade: it re-exports the types needed to
// build testbeds, enable Falcon, drive traffic and measure results. The
// implementation lives under internal/; cmd/falconsim regenerates every
// figure in the paper, and EXPERIMENTS.md records the comparison.
package falcon

import (
	"io"

	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/experiments"
	"falcon/internal/faults"
	"falcon/internal/overlay"
	"falcon/internal/pcap"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
	"falcon/internal/transport"
	"falcon/internal/workload"
)

// Core simulation handles.
type (
	// Sim is what every simulation object schedules against: either a
	// serial *Engine or a multi-shard PDES *Cluster.
	Sim = sim.Sim
	// Cluster is the conservative multi-shard PDES engine (one logical
	// process per simulated host, deterministic merge).
	Cluster = sim.Cluster
	// Engine is the deterministic discrete-event engine driving a
	// simulation.
	Engine = sim.Engine
	// Time is virtual time in nanoseconds.
	Time = sim.Time
)

// Re-exported duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Gbps expresses link rates in NewTestbed configs.
const Gbps = devices.Gbps

// Link is one simulated wire (Host.LinkTo; fault and pcap target).
type Link = devices.Link

// Topology and workload types.
type (
	// Testbed is the standard two-server (client/server) deployment the
	// paper's evaluation uses.
	Testbed = workload.Testbed
	// TestbedConfig sizes a Testbed.
	TestbedConfig = workload.TestbedConfig
	// Network is a custom overlay topology (hosts, containers, links).
	Network = overlay.Network
	// Host is one simulated server.
	Host = overlay.Host
	// Container is a container on a host's overlay network.
	Container = overlay.Container
	// UDPFlow is a sockperf-style UDP sender/receiver pair.
	UDPFlow = workload.UDPFlow
	// TCPConn is a simulated TCP connection through the overlay.
	TCPConn = transport.Conn
	// TCPConfig describes a TCP connection's endpoints.
	TCPConfig = transport.Config
	// Socket is a receiving endpoint with delivery instrumentation.
	Socket = socket.Socket
	// Result is one measured window of a workload.
	Result = workload.Result
	// Mode selects Host / Con / Falcon comparisons.
	Mode = workload.Mode
)

// Comparison modes, as labelled in the paper.
const (
	ModeHost   = workload.ModeHost
	ModeCon    = workload.ModeCon
	ModeFalcon = workload.ModeFalcon
)

// Falcon itself.
type (
	// Config selects Falcon's features (FALCON_CPUS, load threshold,
	// two-choice balancing, GRO splitting).
	Config = falconcore.Config
	// Falcon is a host's Falcon instance.
	Falcon = falconcore.Falcon
)

// DefaultLoadThreshold is FALCON_LOAD_THRESHOLD's default (85%).
const DefaultLoadThreshold = falconcore.DefaultLoadThreshold

// Standard testbed addresses.
var (
	// ClientIP and ServerIP are the public host IPs of a Testbed.
	ClientIP = workload.ClientIP
	ServerIP = workload.ServerIP
)

// DefaultConfig returns the paper's full Falcon configuration over the
// given FALCON_CPUS.
func DefaultConfig(cpus []int) Config { return falconcore.DefaultConfig(cpus) }

// NewEngine returns a deterministic simulation engine.
func NewEngine(seed uint64) *Engine { return sim.New(seed) }

// NewCluster returns a deterministic multi-shard PDES simulation whose
// printed results are byte-identical to the serial engine's.
func NewCluster(seed uint64, shards, workers int) *Cluster {
	return sim.NewCluster(seed, shards, workers)
}

// AutoShards picks a (shards, workers) pair for a topology with the
// given host count from runtime.NumCPU() — the CLI's `-shards auto`.
// (1, 1) means "use the serial engine". A negative TestbedConfig.Shards
// applies the same heuristic inside NewTestbed.
func AutoShards(hosts int) (shards, workers int) { return sim.AutoShards(hosts) }

// NewTestbed builds the standard client/server testbed.
func NewTestbed(cfg TestbedConfig) *Testbed { return workload.NewTestbed(cfg) }

// NewNetwork builds an empty custom topology on a simulation (a serial
// *Engine or a PDES *Cluster).
func NewNetwork(e Sim) *Network { return overlay.NewNetwork(e) }

// DialTCP establishes a TCP connection; appWork is extra per-message
// receiver-side processing.
func DialTCP(cfg TCPConfig, appWork Time) (*TCPConn, error) {
	return transport.Dial(cfg, appWork)
}

// MeasureWindow advances the testbed past warmup, measures one window
// over the given sockets, and returns server-side metrics.
func MeasureWindow(tb *Testbed, socks []*Socket, warmup, window Time) Result {
	return workload.MeasureWindow(tb, socks, warmup, window)
}

// Chaos harness: deterministic, time-windowed fault injection (see
// internal/faults for the plan format and the shipped fault types).
type (
	// Fault is one schedulable impairment.
	Fault = faults.Fault
	// FaultItem schedules a Fault over one time window.
	FaultItem = faults.Item
	// FaultPlan is a named schedule of impairments for one run.
	FaultPlan = faults.Plan
	// FaultInjector binds plans to an engine.
	FaultInjector = faults.Injector
)

// The shipped fault types, usable directly in FaultPlan items. Handles
// come from the testbed: links via Host.LinkTo, machines via Host.M,
// NICs via Host.NIC, the KV store via Network.KV.
type (
	// LinkLossBurst forces a loss rate on one link for the window.
	LinkLossBurst = faults.LinkLossBurst
	// LinkJitterBurst adds bounded random delay to one link.
	LinkJitterBurst = faults.LinkJitterBurst
	// RingShrink caps a pNIC's rx-ring occupancy.
	RingShrink = faults.RingShrink
	// CoreStall wedges cores silently (they keep their queues).
	CoreStall = faults.CoreStall
	// CoreOffline hot-unplugs cores visibly.
	CoreOffline = faults.CoreOffline
	// KVFlaky adds latency and transient failures to KV lookups.
	KVFlaky = faults.KVFlaky
	// NoisyNeighbor burns a utilization share of the given cores.
	NoisyNeighbor = faults.NoisyNeighbor
	// HostCrash kills a whole host for the window (queue-resident
	// packets die accounted; arrivals blackhole until the reboot).
	HostCrash = faults.HostCrash
	// KVPartition cuts one host off from the KV control plane (stale
	// flow-cache serving, retry/backoff on misses, reconcile on heal).
	KVPartition = faults.KVPartition
)

// NewFaultInjector returns an injector whose randomness forks from the
// engine's seeded root RNG.
func NewFaultInjector(e Sim) *FaultInjector { return faults.NewInjector(e) }

// Experiment reproduces one of the paper's figures.
type Experiment = experiments.Experiment

// ExperimentOptions tunes experiment runs.
type ExperimentOptions = experiments.Options

// Experiments lists every reproducible figure/table.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment.
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// Table is a labelled results grid produced by experiments. Its cells
// are typed: a number cell keeps its value and the format that renders
// it, a text cell a label. String renders the grid; Value reads a
// number back by column name and leading row labels, e.g.
// tbl.Value("Falcon", "16B").
type Table = stats.Table

// Latency instrumentation: Result.LatencyHist is a *Histogram.
type (
	// Histogram is a log-linear latency histogram (deterministic,
	// mergeable across sockets and shards).
	Histogram = stats.Histogram
	// LatencySummary is a Histogram's percentile summary
	// (p50/p90/p99/p99.9, min/max/mean).
	LatencySummary = stats.Summary
	// Rand is the deterministic splitmix64 RNG every simulation object
	// draws from; custom Samplers and Arrivals receive one.
	Rand = sim.Rand
)

// NewHistogram returns an empty latency histogram, e.g. to merge
// Result.LatencyHist across runs.
func NewHistogram() *Histogram { return stats.NewHistogram() }

// Open-loop load generation (DESIGN.md §3.1): tb.StartOpenLoop(cfg,
// until) attaches a flow population to a Testbed. Its send schedule is
// drawn independently of the datapath, so offered load is honest under
// overload and identical across modes and shard counts.
type (
	// Sampler draws flow sizes; Pareto and Lognormal are shipped.
	Sampler = workload.Sampler
	// Pareto is the heavy-tailed size distribution P(X>x) = (Xm/x)^Alpha.
	Pareto = workload.Pareto
	// Lognormal: ln X ~ N(Mu, Sigma²).
	Lognormal = workload.Lognormal
	// Arrivals produces interarrival gaps for the flow arrival process.
	Arrivals = workload.Arrivals
	// PoissonArrivals is the memoryless arrival baseline.
	PoissonArrivals = workload.PoissonArrivals
	// MMPP2 is a bursty two-state Markov-modulated Poisson process.
	MMPP2 = workload.MMPP2
	// OpenLoopConfig sizes an open-loop flow population.
	OpenLoopConfig = workload.OpenLoopConfig
	// OpenLoop is a running population (Testbed.StartOpenLoop).
	OpenLoop = workload.OpenLoop
)

// LognormalWithMean builds a Lognormal with the given expectation and
// shape sigma.
func LognormalWithMean(mean, sigma float64) Lognormal {
	return workload.LognormalWithMean(mean, sigma)
}

// PcapWriter captures the virtual wire to a tcpdump-readable pcap
// stream (NewPcapWriter; attach with TapLink).
type PcapWriter = pcap.Writer

// NewPcapWriter starts a pcap stream; snapLen 0 captures full frames.
func NewPcapWriter(w io.Writer, snapLen int) (*PcapWriter, error) {
	return pcap.NewWriter(w, snapLen)
}

// TapLink mirrors every frame crossing a link into a pcap stream.
func TapLink(l *Link, pw *PcapWriter) { pcap.Tap(l, pw) }
