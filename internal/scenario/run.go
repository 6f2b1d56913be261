package scenario

import (
	"fmt"
	"sort"
	"strings"

	"falcon/internal/audit"
	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/faults"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/reconfig"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/transport"
	"falcon/internal/workload"
)

// eventBudget aborts any single scenario run after this many engine
// events — a runaway-simulation guard (the oracle runner converts the
// panic into a reported violation rather than wedging the fuzz loop).
const eventBudget = 200_000_000

// RunResult is one measured window of a scenario under one mode. Every
// field is deterministic for a given (scenario, falcon) pair; the
// determinism oracle compares Fingerprints across repeated runs.
type RunResult struct {
	Falcon    bool
	Delivered uint64 // packets (GRO segments) consumed in the window
	TCPBytes  uint64 // TCP payload bytes assembled in the window
	PPS       float64

	P50, P99, P999, MaxLat int64

	NICDrops, BacklogDrops, SocketDrops uint64
	HardIRQs, NetRX, RES                uint64

	FalconFirst, FalconSecond, FalconGated uint64

	// Fired and Inlined count heap events fired and slots run — the
	// strictest determinism probes. Both may depend on how the engine is
	// sharded, so cross-shard comparisons clear them.
	Fired, Inlined uint64
}

// Fingerprint renders everything measurable; byte-equal fingerprints
// mean the runs were indistinguishable.
func (r RunResult) Fingerprint() string {
	return fmt.Sprintf("falcon=%t delivered=%d tcpbytes=%d pps=%.6f p50=%d p99=%d p999=%d max=%d nic=%d backlog=%d sock=%d hirq=%d netrx=%d res=%d f1=%d f2=%d gated=%d fired=%d inlined=%d",
		r.Falcon, r.Delivered, r.TCPBytes, r.PPS, r.P50, r.P99, r.P999, r.MaxLat,
		r.NICDrops, r.BacklogDrops, r.SocketDrops, r.HardIRQs, r.NetRX, r.RES,
		r.FalconFirst, r.FalconSecond, r.FalconGated, r.Fired, r.Inlined)
}

// AccountResult is one drain-complete accounting run: traffic stops at
// the window end, the simulation drains until every ledgered SKB is
// freed, and every counter holds its whole-run total (nothing is reset
// mid-run). This is the form the exact conservation equations and the
// cross-mode packet-set comparison need.
type AccountResult struct {
	Sent      uint64 // Σ per-flow send() calls (UDP)
	Wire      uint64 // frames the client→server link put on the wire
	Delivered uint64 // Σ socket deliveries (GRO segments)

	PerFlowSent, PerFlowDelivered []uint64 // per UDP flow

	// Drops is the whole-network drop census; SocketDrops counts
	// receive-queue overflows, which the census leaves out.
	Drops       overlay.Drops
	SocketDrops uint64

	OrderViols uint64 // per-flow sequence regressions on UDP sockets

	// Violations collects everything the audit subsystem flagged
	// (ledger leaks, balance breaks, queue corruption, watchdog stalls).
	Violations []string
}

// bed is one constructed scenario run, before time advances.
type bed struct {
	tb       *workload.Testbed
	udp      []*workload.UDPFlow
	tcp      []*transport.Conn
	socks    []*socket.Socket // unique sockets, UDP then TCP
	udpSocks []*socket.Socket
	// twins holds the spare-host twin socket per UDP flow (nil entries
	// when the scenario has no drain): same overlay IP and port as the
	// primary, live the moment the drain remaps the container.
	twins []*socket.Socket
	// ol is the open-loop flow population, when the scenario has one.
	ol       *workload.OpenLoop
	mgr      *reconfig.Manager
	audViols []string
}

// build constructs the testbed, falcon config, fault schedule and flows
// for one scenario run. withAudit attaches the full audit harness in
// collector mode (audit must precede flow creation so socket-open hooks
// see every receive queue).
func build(sc Scenario, falcon, withAudit bool) *bed {
	tb := workload.NewTestbed(workload.TestbedConfig{
		Kernel: sc.Kernel, LinkRate: sc.LinkGbps * devices.Gbps,
		Cores: sc.Cores, Containers: sc.Containers,
		RSSCores: []int{0}, RPSCores: []int{1},
		GRO: sc.GRO, InnerGRO: sc.InnerGRO,
		MTU: sc.MTU, Seed: sc.Seed,
		// TCP endpoints share connection state, so scenarios with any
		// TCP flow colocate both hosts on one shard.
		Shards: sc.Shards, Colocate: !sc.UDPOnly(),
		// A drain or a crash fail-over needs the spare host carrying
		// standby twins of every server container.
		Spare:   sc.HasDrain() || sc.HasCrash(),
		RxCache: sc.RxCache,
	})
	tb.E.SetEventBudget(eventBudget)
	b := &bed{tb: tb}
	if withAudit {
		tb.EnableAudit(audit.Config{OnViolation: func(v *audit.Violation) {
			b.audViols = append(b.audViols, v.String())
		}})
	}
	if falcon && len(sc.FalconCPUs) > 0 {
		cfg := falconcore.DefaultConfig(sc.FalconCPUs)
		cfg.TwoChoice = sc.TwoChoice
		cfg.GROSplit = sc.GROSplit
		cfg.AlwaysOn = sc.AlwaysOn
		tb.EnableFalconOnServer(cfg)
	}
	if len(sc.Faults) > 0 {
		in := faults.NewInjector(tb.E)
		for _, ft := range sc.Faults {
			in.Install(faults.Single(
				sc.Warmup()+sim.Time(ft.AtMs)*sim.Millisecond,
				sim.Time(ft.ForMs)*sim.Millisecond,
				buildFault(tb, ft)))
		}
	}

	until := sc.Warmup() + sc.Window()
	for i, f := range sc.Flows {
		switch f.Proto {
		case "udp":
			var fl *workload.UDPFlow
			if f.Ctr > 0 {
				fl = tb.NewUDPFlow(tb.ClientCtrs[f.Ctr-1], tb.ServerCtrs[f.Ctr-1].IP,
					uint16(7000+i), uint16(5001+i), f.Size, f.SendCore, sc.AppCore, uint64(i+1))
			} else {
				fl = tb.NewUDPFlow(nil, workload.ServerIP,
					uint16(7000+i), uint16(5001+i), f.Size, f.SendCore, sc.AppCore, uint64(i+1))
			}
			if f.RatePPS > 0 {
				fl.SendAtRate(f.RatePPS, until)
			} else {
				fl.Flood(until)
			}
			b.udp = append(b.udp, fl)
			b.socks = append(b.socks, fl.Sock)
			b.udpSocks = append(b.udpSocks, fl.Sock)
			var twin *socket.Socket
			if tb.Spare != nil && f.Ctr > 0 {
				twin = tb.Spare.OpenUDP(tb.ServerCtrs[f.Ctr-1].IP, uint16(5001+i), sc.AppCore)
				b.socks = append(b.socks, twin)
				b.udpSocks = append(b.udpSocks, twin)
			}
			b.twins = append(b.twins, twin)
		case "tcp":
			cfg := transport.Config{
				Net:        tb.Net,
				SenderHost: tb.Client, SenderCore: f.SendCore, SrcPort: uint16(40000 + i),
				ReceiverHost: tb.Server, AppCore: sc.AppCore, DstPort: uint16(5200 + i),
				MsgSize: f.Size, FlowID: uint64(100 + i),
			}
			if f.Ctr > 0 {
				cfg.SenderCtr = tb.ClientCtrs[f.Ctr-1]
				cfg.ReceiverCtr = tb.ServerCtrs[f.Ctr-1]
			}
			c, err := transport.Dial(cfg, 0)
			if err != nil {
				panic(fmt.Sprintf("scenario: dialing tcp flow %d: %v", i, err))
			}
			c.StartContinuous()
			b.tcp = append(b.tcp, c)
			b.socks = append(b.socks, c.Socket())
		}
	}
	if sc.OpenLoop != nil {
		b.ol = tb.StartOpenLoop(openLoopConfig(sc), until)
		b.socks = append(b.socks, b.ol.Socks...)
		b.udpSocks = append(b.udpSocks, b.ol.Socks...)
	}
	if len(sc.Reconfigs) > 0 {
		b.mgr = reconfig.New(tb.Net, reconfigSchedule(sc))
		if err := b.mgr.Arm(sc.Warmup(), until); err != nil {
			panic(fmt.Sprintf("scenario: arming reconfig schedule: %v", err))
		}
	}
	return b
}

// openLoopConfig translates an OpenLoopSpec into the concrete workload
// population: the spec picks distribution family and rates, the shapes
// (Pareto alpha, lognormal sigma, MMPP burst geometry) are fixed so a
// scenario file stays a small, comparable description. The population
// always rides the first container pair — the tail claims are about the
// overlay datapath — on the same send cores the generator hands
// explicit flows.
func openLoopConfig(sc Scenario) workload.OpenLoopConfig {
	ol := sc.OpenLoop
	var size workload.Sampler
	switch ol.Dist {
	case "pareto":
		const alpha = 1.5
		size = workload.Pareto{Xm: ol.MeanPkts * (alpha - 1) / alpha, Alpha: alpha}
	default: // "lognormal" (Validate closed the set)
		size = workload.LognormalWithMean(ol.MeanPkts, 0.75)
	}
	var arr workload.Arrivals
	switch ol.Arrivals {
	case "mmpp":
		arr = &workload.MMPP2{
			CalmRate: 0.5 * ol.FlowsPerSec, BurstRate: 1.5 * ol.FlowsPerSec,
			MeanCalm: 500 * sim.Microsecond, MeanBurst: 500 * sim.Microsecond,
		}
	default: // "poisson"
		arr = workload.PoissonArrivals{Rate: ol.FlowsPerSec}
	}
	return workload.OpenLoopConfig{
		Arrivals: arr, FlowSize: size,
		PacketSize: ol.Size, FlowRate: ol.FlowRatePPS, Ports: ol.Ports,
		SendCores: []int{2, 3}, AppCore: sc.AppCore, Ctr: 1,
	}
}

// reconfigSchedule translates the scenario's reconfig specs into the
// concrete schedule on the server host (a drain lands the containers on
// the spare's standby twins and re-adds the server ForMs later; a crash
// fails them over to the same twins and reboots the server ForMs
// later). Actions are sorted by effective time, as Arm requires.
func reconfigSchedule(sc Scenario) *reconfig.Schedule {
	on, off := true, false
	var acts []reconfig.Action
	for _, rc := range sc.Reconfigs {
		switch rc.Kind {
		case "drain":
			acts = append(acts,
				reconfig.Action{Kind: reconfig.KindDrain, AtMs: rc.AtMs,
					Host: "server", To: "spare", TransitUs: 200},
				reconfig.Action{Kind: reconfig.KindAdd, AtMs: rc.AtMs + rc.ForMs, Host: "server"})
		case "kernel-upgrade":
			acts = append(acts,
				reconfig.Action{Kind: reconfig.KindKernelUpgrade, AtMs: rc.AtMs,
					Host: "server", Kernel: "linux-5.4"})
		case "crash":
			acts = append(acts,
				reconfig.Action{Kind: reconfig.KindCrash, AtMs: rc.AtMs,
					Host: "server", To: "spare", UntilMs: rc.AtMs + rc.ForMs})
		case "rps-flip":
			acts = append(acts,
				reconfig.Action{Kind: reconfig.KindRPSFlip, AtMs: rc.AtMs, Host: "server", Enable: &off},
				reconfig.Action{Kind: reconfig.KindRPSFlip, AtMs: rc.AtMs + rc.ForMs, Host: "server", Enable: &on})
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].AtMs < acts[j].AtMs })
	return &reconfig.Schedule{Actions: acts}
}

// buildFault resolves a FaultSpec against the concrete testbed.
func buildFault(tb *workload.Testbed, ft FaultSpec) faults.Fault {
	us := func(n int) sim.Time { return sim.Time(n) * sim.Microsecond }
	switch ft.Kind {
	case "link-loss":
		return &faults.LinkLossBurst{Link: tb.Client.LinkTo(workload.ServerIP), Rate: ft.Rate}
	case "link-jitter":
		return &faults.LinkJitterBurst{Link: tb.Client.LinkTo(workload.ServerIP), Jitter: us(ft.Amount)}
	case "ring-shrink":
		return &faults.RingShrink{NIC: tb.Server.NIC, Limit: ft.Amount}
	case "core-stall":
		return &faults.CoreStall{M: tb.Server.M, Cores: ft.Cores}
	case "core-offline":
		return &faults.CoreOffline{M: tb.Server.M, Cores: ft.Cores}
	case "kv-flaky":
		return &faults.KVFlaky{KV: tb.Net.KV, Latency: us(ft.Amount), FailRate: ft.Rate}
	case "noisy-neighbor":
		return &faults.NoisyNeighbor{M: tb.Server.M, Cores: ft.Cores, Utilization: ft.Rate}
	}
	panic("scenario: unknown fault kind " + ft.Kind) // Validate rejects these
}

// Measure runs the scenario under one mode and measures the window —
// the throughput/latency view the comparative oracles use.
func Measure(sc Scenario, falcon bool) RunResult {
	b := build(sc, falcon, false)
	b.tb.Run(sc.Warmup())
	var tcpBase uint64
	for _, c := range b.tcp {
		tcpBase += c.BytesAssembled.Value()
	}
	res := workload.MeasureWindow(b.tb, b.socks, sc.Warmup(), sc.Window())
	out := RunResult{
		Falcon:    falcon,
		Delivered: res.Delivered,
		PPS:       res.PPS,
		P50:       res.Latency.P50, P99: res.Latency.P99, P999: res.Latency.P999, MaxLat: res.Latency.Max,
		NICDrops: res.NICDrops, BacklogDrops: res.BacklogDrops, SocketDrops: res.SocketDrops,
		HardIRQs: res.HardIRQs, NetRX: res.NetRX, RES: res.RES,
		Fired: b.tb.E.Fired(), Inlined: b.tb.E.Inlined(),
	}
	for _, c := range b.tcp {
		out.TCPBytes += c.BytesAssembled.Value()
		c.Close()
	}
	out.TCPBytes -= tcpBase
	if fal := b.tb.Server.Falcon; fal != nil {
		out.FalconFirst, out.FalconSecond, out.FalconGated = fal.Stats()
	}
	return out
}

// Account runs the scenario drain-complete with the full audit harness
// in collector mode: traffic stops at the window end, the engine drains
// until the SKB ledger is empty, and the auditor's teardown checks
// (including the end-of-run leak check) run. Whole-run totals plus
// every collected audit violation come back for the conservation and
// packet-set oracles.
func Account(sc Scenario, falcon bool) AccountResult {
	b := build(sc, falcon, true)
	until := sc.Warmup() + sc.Window()
	b.tb.Run(until)
	for _, c := range b.tcp {
		c.Close()
	}
	a := b.tb.Audit
	deadline := until
	for i := 0; i < 20 && (a.LiveCount() > 0 || b.tb.Client.TxPending() > 0); i++ {
		deadline += 2 * sim.Millisecond
		b.tb.Run(deadline)
	}
	for _, v := range a.Final() {
		b.audViols = append(b.audViols, v.String())
	}

	out := AccountResult{Violations: dedupe(b.audViols)}
	for i, f := range b.udp {
		delivered := f.Sock.Delivered.Value()
		if tw := b.twins[i]; tw != nil {
			delivered += tw.Delivered.Value()
		}
		out.PerFlowSent = append(out.PerFlowSent, f.Sent())
		out.PerFlowDelivered = append(out.PerFlowDelivered, delivered)
		out.Sent += f.Sent()
	}
	if b.ol != nil {
		// The population's sends enter the same conservation books; its
		// deliveries are already in via b.socks.
		out.Sent += b.ol.Sent()
	}
	for _, sk := range b.socks {
		out.Delivered += sk.Delivered.Value()
		out.SocketDrops += sk.SocketDrops.Value()
	}
	for _, sk := range b.udpSocks {
		out.OrderViols += sk.OrderViols
	}
	// Wire accounting sums every client egress link: without a spare
	// host that is exactly the client→server link; a drained scenario
	// also puts post-migration frames on the client→spare link.
	b.tb.Client.EachLink(func(_ proto.IPv4Addr, l *devices.Link) {
		out.Wire += l.Sent.Value()
	})
	out.Drops = b.tb.Net.Drops()
	return out
}

// Lost counts every packet the run destroyed: the census plus socket
// drops.
func (a AccountResult) Lost() uint64 { return a.Drops.Total() + a.SocketDrops }

// dedupe collapses repeated violation strings (a stuck balance fires
// every sweep) while preserving first-seen order.
func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		// Strip the timestamp so the same breach at successive sweeps
		// folds into one line.
		key := s
		if i := strings.Index(s, ": "); i >= 0 {
			key = s[i:]
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	return out
}
