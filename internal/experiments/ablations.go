package experiments

import (
	"fmt"

	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
	"falcon/internal/transport"
	"falcon/internal/workload"
)

// Ablations beyond the paper's figures, probing the design choices
// DESIGN.md calls out.

func init() {
	register("abl-grosplit", "Ablation: GRO splitting per workload", ablGROSplit)
	register("abl-locality", "Ablation: migration-penalty sweep", ablLocality)
	register("abl-stages", "Ablation: pipelining-only vs full Falcon", ablStages)
	register("abl-dynsplit", "Extension: dynamic GRO splitting (paper §6.4 future work)", ablDynSplit)
	register("abl-slim", "Baseline: Slim-style connection redirection vs Falcon", ablSlim)
	register("abl-mtu", "Extension: MTU-1500 fragmentation vs jumbo frames", ablMTU)
}

// ablMTU contrasts the default jumbo/GSO wire model with real MTU-1500
// IP fragmentation at a fixed offered rate: a large UDP datagram becomes
// several wire packets, each paying NIC and lower-stack costs before
// reassembly, multiplying CPU consumption — and the overlay pays it on
// its serialized core. (Under overload, fragmented UDP collapses
// entirely: one lost fragment voids the datagram — which is why the
// paper's jumbo/GSO regime is the interesting one for peak rates.)
func ablMTU(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Extension: 9000B UDP at 40Kpps — jumbo vs MTU-1500 wire",
		Columns: []string{"wire", "mode", "delivered(Kpps)", "wire frames/s", "server CPU (cores)", "p99(us)"},
	}
	run := func(mode workload.Mode, mtu int) (workload.Result, float64) {
		cfg := singleFlowConfig(100 * devices.Gbps)
		cfg.MTU = mtu
		tb := newBed(opt, cfg)
		if mode == workload.ModeFalcon {
			tb.EnableFalconOnServer(falconcore.DefaultConfig(singleFlowFalconCPUs))
		}
		until := opt.warmup() + opt.window() + 5*sim.Millisecond
		var f *workload.UDPFlow
		if mode == workload.ModeHost {
			f = tb.NewUDPFlow(nil, workload.ServerIP, 7000, 5001, 9000, 2, singleFlowAppCore, 1)
		} else {
			f = tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 9000, 2, singleFlowAppCore, 1)
		}
		wireBefore := tb.Client.LinkTo(workload.ServerIP).Sent.Value()
		f.SendAtRate(40_000, until)
		res := workload.MeasureWindow(tb, []*socket.Socket{f.Sock}, opt.warmup(), opt.window())
		wire := float64(tb.Client.LinkTo(workload.ServerIP).Sent.Value()-wireBefore) /
			(opt.warmup() + opt.window()).Seconds()
		return res, wire
	}
	for _, mtu := range []int{0, 1500} {
		wireName := "jumbo"
		if mtu > 0 {
			wireName = "MTU1500"
		}
		for _, mode := range []workload.Mode{workload.ModeHost, workload.ModeCon, workload.ModeFalcon} {
			res, wire := run(mode, mtu)
			cpuCores := 0.0
			for _, u := range res.CoreBusy {
				cpuCores += u
			}
			t.AddRow(wireName, mode.String(), fKpps(res.PPS),
				fmt.Sprintf("%.0f", wire), fmt.Sprintf("%.2f", cpuCores), fUs(res.Latency.P99))
		}
	}
	return []*stats.Table{t}
}

// ablSlim compares against a Slim-style overlay (NSDI'19), the paper's
// main point of comparison in related work: Slim redirects connections
// so containers use private IPs only at setup while packets travel with
// host IPs — the per-packet data path IS the host path, so it reaches
// near-native TCP throughput. Its limitation, which Falcon avoids, is
// that it only works for connection-oriented protocols: the UDP column
// simply cannot run over Slim.
func ablSlim(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Baseline: Slim-style redirection vs overlay vs Falcon (100G)",
		Columns: []string{"configuration", "TCP 4K (Gbps)", "UDP 16B (Kpps)"},
	}
	tcp := func(mode workload.Mode) float64 {
		tb := newSingleFlowBed(mode, opt, 100*devices.Gbps, true)
		return runTCPBulkConns(tb, 3, opt)
	}
	udp := func(mode workload.Mode) string {
		r := udpStress(mode, opt, 100*devices.Gbps, 16)
		return fKpps(r.PPS)
	}
	t.AddRow("Host", fGbps(tcp(workload.ModeHost)), udp(workload.ModeHost))
	t.AddRow("Con (vanilla overlay)", fGbps(tcp(workload.ModeCon)), udp(workload.ModeCon))
	t.AddRow("Falcon overlay", fGbps(tcp(workload.ModeFalcon)), udp(workload.ModeFalcon))
	// Slim: container endpoints, host-path wire traffic. In this
	// simulator that is precisely a host-path TCP connection (the
	// one-time connection-setup redirection amortizes to zero).
	slim := func() float64 {
		tb := newSingleFlowBed(workload.ModeCon, opt, 100*devices.Gbps, true)
		var cs []*transport.Conn
		for i := 0; i < 3; i++ {
			c := mustDial(tb, newTCPConfig(tb, workload.ModeHost, 4096, i))
			c.StartContinuous()
			cs = append(cs, c)
		}
		tb.Run(opt.warmup())
		var base uint64
		for _, c := range cs {
			base += c.BytesAssembled.Value()
		}
		tb.Run(opt.warmup() + opt.window())
		var bytes uint64
		for _, c := range cs {
			bytes += c.BytesAssembled.Value()
			c.Close()
		}
		return float64(bytes-base) * 8 / opt.window().Seconds() / 1e9
	}
	t.AddRow("Slim-style redirection", fGbps(slim()), "unsupported (connection-less)")
	return []*stats.Table{t}
}

// ablDynSplit evaluates the dynamic function-level splitting controller
// the paper names as future work: it should match static-on for the
// GRO-bound TCP 4K workload and static-off for small-packet UDP,
// without any offline profiling decision.
func ablDynSplit(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Extension: dynamic GRO splitting vs static (100G)",
		Columns: []string{"workload", "split-off", "split-on", "dynamic", "dyn engaged"},
	}
	type outcome struct {
		value   float64
		engaged bool
	}
	run := func(tcp bool, mode string) outcome {
		tb := newSingleFlowBed(workload.ModeCon, opt, 100*devices.Gbps, tcp)
		cfg := falconcore.DefaultConfig(singleFlowFalconCPUs)
		cfg.GROSplit = mode == "on"
		fal := tb.EnableFalconOnServer(cfg)
		if mode == "dyn" {
			fal.EnableDynamicGROSplit([]int{0})
		}
		if tcp {
			g := runTCPBulkConns(tb, 3, opt)
			return outcome{value: g, engaged: fal.DynamicSplitActive()}
		}
		sock, _ := tb.StressFlood(true, 3, 16, singleFlowAppCore,
			opt.warmup()+opt.window()+5*sim.Millisecond)
		res := workload.MeasureWindow(tb, []*socket.Socket{sock}, opt.warmup(), opt.window())
		return outcome{value: res.PPS / 1e3, engaged: fal.DynamicSplitActive()}
	}
	for _, w := range []struct {
		label string
		tcp   bool
	}{{"TCP 4K (Gbps)", true}, {"UDP 16B (Kpps)", false}} {
		off := run(w.tcp, "off")
		on := run(w.tcp, "on")
		dyn := run(w.tcp, "dyn")
		t.AddRow(w.label,
			fGbpsOrKpps(off.value), fGbpsOrKpps(on.value), fGbpsOrKpps(dyn.value),
			fmt.Sprintf("%v", dyn.engaged))
	}
	return []*stats.Table{t}
}

func fGbpsOrKpps(v float64) string { return fmt.Sprintf("%.2f", v) }

// runTCPBulkConns drives n continuous TCP connections on an existing
// testbed and returns aggregate goodput in Gb/s. Three connections
// saturate the NAPI core — the regime where GRO splitting matters.
func runTCPBulkConns(tb *workload.Testbed, n int, opt Options) float64 {
	var cs []*transport.Conn
	for i := 0; i < n; i++ {
		c := mustDial(tb, newTCPConfig(tb, workload.ModeCon, 4096, i))
		c.StartContinuous()
		cs = append(cs, c)
	}
	tb.Run(opt.warmup())
	var base uint64
	for _, c := range cs {
		base += c.BytesAssembled.Value()
	}
	tb.Run(opt.warmup() + opt.window())
	var bytes uint64
	for _, c := range cs {
		bytes += c.BytesAssembled.Value()
		c.Close()
	}
	bytes -= base
	return float64(bytes) * 8 / opt.window().Seconds() / 1e9
}

// ablGROSplit: the Section 6.4 discussion — splitting helps TCP with
// large segments but is useless (or slightly harmful) for small-packet
// UDP, which is why a static split needs discretion.
func ablGROSplit(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Ablation: GRO splitting on/off (100G)",
		Columns: []string{"workload", "no-split", "split", "effect"},
	}
	run := func(groSplit bool, tcp bool) float64 {
		o := opt
		link := 100 * devices.Gbps
		if tcp {
			tb := newSingleFlowBed(workload.ModeCon, o, link, true)
			cfg := falconcore.DefaultConfig(singleFlowFalconCPUs)
			cfg.GROSplit = groSplit
			tb.EnableFalconOnServer(cfg)
			return runTCPBulkConns(tb, 3, o)
		}
		tb := newSingleFlowBed(workload.ModeCon, o, link, false)
		cfg := falconcore.DefaultConfig(singleFlowFalconCPUs)
		cfg.GROSplit = groSplit
		tb.EnableFalconOnServer(cfg)
		sock, _ := tb.StressFlood(true, 3, 16, singleFlowAppCore, o.warmup()+o.window()+5*sim.Millisecond)
		return workload.MeasureWindow(tb, []*socket.Socket{sock}, o.warmup(), o.window()).PPS
	}
	tcpOff := run(false, true)
	tcpOn := run(true, true)
	t.AddRow("TCP 4K (Gbps)", fGbps(tcpOff), fGbps(tcpOn), fRatio(tcpOn/tcpOff))
	udpOff := run(false, false)
	udpOn := run(true, false)
	t.AddRow("UDP 16B (Kpps)", fKpps(udpOff), fKpps(udpOn), fRatio(udpOn/udpOff))
	return []*stats.Table{t}
}

// ablLocality: sweep the cross-core migration penalty to find where
// pipelining stops paying (the Section 6.3 locality trade-off).
func ablLocality(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Ablation: migration penalty vs Falcon gain (16B UDP stress)",
		Columns: []string{"penalty(ns)", "Con(Kpps)", "Falcon(Kpps)", "Falcon/Con"},
	}
	penalties := []float64{0, 130, 500, 1500}
	if opt.Quick {
		penalties = []float64{130, 1500}
	}
	for _, p := range penalties {
		run := func(mode workload.Mode) float64 {
			tb := newSingleFlowBed(mode, opt, 100*devices.Gbps, false)
			tb.Server.M.Model.MigrationPenalty = p
			tb.Client.M.Model.MigrationPenalty = p
			sock, _ := tb.StressFlood(true, 3, 16, singleFlowAppCore,
				opt.warmup()+opt.window()+5*sim.Millisecond)
			return workload.MeasureWindow(tb, []*socket.Socket{sock}, opt.warmup(), opt.window()).PPS
		}
		con := run(workload.ModeCon)
		fal := run(workload.ModeFalcon)
		t.AddRow(fmt.Sprintf("%.0f", p), fKpps(con), fKpps(fal), fRatio(fal/con))
	}
	return []*stats.Table{t}
}

// ablStages: isolate the contribution of each Falcon mechanism on the
// TCP 4K bulk workload: pipelining only, pipelining + splitting, and
// full Falcon with the two-choice balancer.
func ablStages(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Ablation: Falcon mechanisms on TCP 4K bulk (Gbps)",
		Columns: []string{"configuration", "goodput", "vs vanilla"},
	}
	run := func(cfg *falconcore.Config) float64 {
		tb := newSingleFlowBed(workload.ModeCon, opt, 100*devices.Gbps, true)
		if cfg != nil {
			tb.EnableFalconOnServer(*cfg)
		}
		return runTCPBulkConns(tb, 3, opt)
	}
	vanilla := run(nil)
	t.AddRow("vanilla overlay", fGbps(vanilla), "1.00x")

	pipe := falconcore.DefaultConfig(singleFlowFalconCPUs)
	pipe.GROSplit = false
	pipe.TwoChoice = false
	g := run(&pipe)
	t.AddRow("pipelining only", fGbps(g), fRatio(g/vanilla))

	split := falconcore.DefaultConfig(singleFlowFalconCPUs)
	split.TwoChoice = false
	g = run(&split)
	t.AddRow("pipelining + GRO split", fGbps(g), fRatio(g/vanilla))

	full := falconcore.DefaultConfig(singleFlowFalconCPUs)
	g = run(&full)
	t.AddRow("full falcon", fGbps(g), fRatio(g/vanilla))
	return []*stats.Table{t}
}
