package experiments

import (
	"strconv"

	"falcon/internal/apps"
	"falcon/internal/audit"
	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
	"falcon/internal/transport"
	"falcon/internal/workload"
)

// Core-layout conventions shared by the single-flow experiments (they
// mirror the paper's Fig. 11 layout): RSS pins NIC queues to core 0, RPS
// steers softirqs to core 1, the application thread runs on core 2, and
// FALCON_CPUS are cores 3–5.
var (
	singleFlowFalconCPUs = []int{3, 4, 5}
	singleFlowAppCore    = 2
)

// newBed builds a testbed for an experiment. It is the one place the
// run-wide Options reach a bed: the kernel profile, seed, shard count
// and RX cache are copied into cfg, and the event budget and audit
// harness are attached, so every flag holds for every testbed-based
// experiment. Set cfg.Colocate when endpoints share state across hosts
// (TCP connections, closed-loop RPC apps): transport.Dial rejects
// split endpoints.
func newBed(opt Options, cfg workload.TestbedConfig) *workload.Testbed {
	cfg.Kernel, cfg.Seed = opt.Kernel, opt.seed()
	cfg.Shards, cfg.RxCache = opt.Shards, opt.RxCache
	tb := workload.NewTestbed(cfg)
	if opt.MaxEvents > 0 {
		tb.E.SetEventBudget(opt.MaxEvents)
	}
	if opt.Audit {
		tb.EnableAudit(audit.Config{})
	}
	return tb
}

// singleFlowConfig is the standard single-flow bed: 12 cores, one
// container per side, RSS on core 0 and RPS on core 1.
func singleFlowConfig(link float64) workload.TestbedConfig {
	return workload.TestbedConfig{
		LinkRate: link, Cores: 12, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1},
		GRO: true, InnerGRO: true,
	}
}

// newSingleFlowBed builds the standard single-flow testbed, with Falcon
// on the server in Falcon mode. colocate is TestbedConfig.Colocate (TCP
// beds need it).
func newSingleFlowBed(mode workload.Mode, opt Options, link float64, colocate bool) *workload.Testbed {
	cfg := singleFlowConfig(link)
	cfg.Colocate = colocate
	tb := newBed(opt, cfg)
	if mode == workload.ModeFalcon {
		tb.EnableFalconOnServer(falconcore.DefaultConfig(singleFlowFalconCPUs))
	}
	return tb
}

// finishAudit drains the simulation until every ledgered SKB is freed,
// then runs the auditor's teardown checks — the end-of-run leak check
// included. Traffic has stopped by `until`, but a full transmit queue
// of large frames can take tens of ms to serialize, so it keeps running
// 2 ms slices for as long as the live count keeps falling and gives up
// after 10 slices without a new low: a genuine leak stops making
// progress and still fails Final. No-op without audit.
func finishAudit(tb *workload.Testbed, until sim.Time) {
	a := tb.Audit
	if a == nil {
		return
	}
	low := a.LiveCount()
	for stalled := 0; low > 0 && stalled < 10; stalled++ {
		until += 2 * sim.Millisecond
		tb.Run(until)
		if live := a.LiveCount(); live < low {
			low, stalled = live, -1
		}
	}
	a.Final()
}

// udpStress runs the 3-client single-flow UDP stress (Fig. 10's
// workload) and returns the measured window.
func udpStress(mode workload.Mode, opt Options, link float64, size int) workload.Result {
	tb := newSingleFlowBed(mode, opt, link, false)
	until := opt.warmup() + opt.window() + 5*sim.Millisecond
	sock, _ := tb.StressFlood(mode != workload.ModeHost, 3, size, singleFlowAppCore, until)
	res := workload.MeasureWindow(tb, []*socket.Socket{sock}, opt.warmup(), opt.window())
	finishAudit(tb, until)
	return res
}

// udpFixedRate runs one single flow at a fixed packet rate.
func udpFixedRate(mode workload.Mode, opt Options, link float64, size int, pps float64) workload.Result {
	tb := newSingleFlowBed(mode, opt, link, false)
	until := opt.warmup() + opt.window() + 5*sim.Millisecond
	var f *workload.UDPFlow
	if mode == workload.ModeHost {
		f = tb.NewUDPFlow(nil, workload.ServerIP, 7000, 5001, size, 2, singleFlowAppCore, 1)
	} else {
		f = tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, size, 2, singleFlowAppCore, 1)
	}
	f.SendAtRate(pps, until)
	res := workload.MeasureWindow(tb, []*socket.Socket{f.Sock}, opt.warmup(), opt.window())
	finishAudit(tb, until)
	return res
}

// tcpResult is a measured TCP window.
type tcpResult struct {
	PPS     float64 // delivered messages (segments) per second
	Gbps    float64 // goodput
	Latency stats.Summary
	Result  workload.Result
}

// tcpBulk runs n continuous TCP connections of the given message size
// and measures the window. hostPlus enables GRO splitting for the host
// network (the paper's "Host+" configuration in Fig. 13).
func tcpBulk(mode workload.Mode, opt Options, link float64, msgSize, conns int, hostPlus bool) tcpResult {
	tb := newSingleFlowBed(mode, opt, link, true)
	if hostPlus && mode == workload.ModeHost {
		cfg := falconcore.DefaultConfig(singleFlowFalconCPUs)
		cfg.GROSplit = true
		tb.EnableFalconOnServer(cfg)
	}

	var cs []*transport.Conn
	for i := 0; i < conns; i++ {
		c := mustDial(tb, newTCPConfig(tb, mode, msgSize, i))
		c.StartContinuous()
		cs = append(cs, c)
	}

	tb.Run(opt.warmup())
	var socks []*socket.Socket
	base := uint64(0)
	for _, c := range cs {
		socks = append(socks, c.Socket())
		base += c.BytesAssembled.Value()
	}
	res := workload.MeasureWindow(tb, socks, opt.warmup(), opt.window())
	var bytes uint64
	for _, c := range cs {
		bytes += c.BytesAssembled.Value()
	}
	bytes -= base
	g := float64(bytes) * 8 / opt.window().Seconds() / 1e9
	for _, c := range cs {
		c.Close()
	}
	return tcpResult{
		PPS:     stats.Rate(bytes/uint64(msgSize), int64(opt.window())),
		Gbps:    g,
		Latency: res.Latency,
		Result:  res,
	}
}

// newTCPConfig builds the standard single-flow TCP config (connection
// idx when running several).
func newTCPConfig(tb *workload.Testbed, mode workload.Mode, msgSize, idx int) transport.Config {
	cfg := transport.Config{
		Net:        tb.Net,
		SenderHost: tb.Client, SenderCore: 2 + idx%3, SrcPort: uint16(40000 + idx),
		ReceiverHost: tb.Server, AppCore: singleFlowAppCore, DstPort: uint16(5200 + idx),
		MsgSize: msgSize, FlowID: uint64(idx + 1),
	}
	if mode != workload.ModeHost {
		cfg.SenderCtr = tb.ClientCtrs[0]
		cfg.ReceiverCtr = tb.ServerCtrs[0]
	}
	return cfg
}

// mustDial dials or panics (experiment configs are static).
func mustDial(tb *workload.Testbed, cfg transport.Config) *transport.Conn {
	c, err := transport.Dial(cfg, 0)
	if err != nil {
		panic(err)
	}
	return c
}

// measureFlows measures one window over the union of the flows' sockets
// (flows may share a socket).
func measureFlows(tb *workload.Testbed, flows []*workload.UDPFlow, opt Options) workload.Result {
	var socks []*socket.Socket
	seen := map[*socket.Socket]bool{}
	for _, f := range flows {
		if !seen[f.Sock] {
			seen[f.Sock] = true
			socks = append(socks, f.Sock)
		}
	}
	return workload.MeasureWindow(tb, socks, opt.warmup(), opt.window())
}

// startMemcachedOn deploys the standard data-caching setup on a testbed:
// the memcached container on the server (app core 6), clients from the
// client container across `threads` cores.
func startMemcachedOn(tb *workload.Testbed, threads, conns int, think sim.Time, until sim.Time) *apps.Memcached {
	// Client threads spread over the client cores that exist (the think
	// time already reflects the requested thread count).
	coreSpread := threads
	if max := tb.Client.M.NumCores() - 6; coreSpread > max {
		coreSpread = max
	}
	return apps.StartMemcached(apps.MemcachedConfig{
		ServerHost: tb.Server, ServerCtr: tb.ServerCtrs[0],
		ServerCores: []int{8, 9, 10, 11}, Port: 11211,
		ClientHost: tb.Client, ClientCtr: tb.ClientCtrs[0],
		ClientThreads: coreSpread, ClientCoreBase: 6, Connections: conns,
		ThinkTime: think,
	}, until)
}

// sampleDelivered schedules a read of the sockets' summed delivery
// counters at start + i ms for i in [first, n] and returns the n+1
// cumulative samples it fills in (entries below first stay zero). The
// sampler only reads counters: it cannot perturb the datapath.
func sampleDelivered(tb *workload.Testbed, start sim.Time, first, n int, socks ...*socket.Socket) []uint64 {
	samples := make([]uint64, n+1)
	for i := first; i <= n; i++ {
		i := i
		tb.E.At(start+sim.Time(i)*sim.Millisecond, func() {
			for _, s := range socks {
				samples[i] += s.Delivered.Value()
			}
		})
	}
	return samples
}

// fRecover renders a recovery time in ms with the given decimals; a
// negative time means delivery never recovered inside the window.
func fRecover(ms float64, decimals int) string {
	if ms < 0 {
		return ">window"
	}
	return strconv.FormatFloat(ms, 'f', decimals, 64)
}

// linkName labels a rate like the paper.
func linkName(rate float64) string {
	if rate >= 100*devices.Gbps {
		return "100G"
	}
	return "10G"
}

// sizeLabel renders packet sizes as the paper's axis labels.
func sizeLabel(size int) string {
	switch {
	case size >= 64000:
		return "64K"
	case size >= 1024 && size%1024 == 0:
		return strconv.Itoa(size/1024) + "K"
	default:
		return strconv.Itoa(size) + "B"
	}
}
