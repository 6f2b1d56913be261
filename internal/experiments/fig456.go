package experiments

import (
	"fmt"

	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// Figures 4–6: the root-cause analysis — interrupt inflation, softirq
// serialization, and per-function CPU shares.

func init() {
	register("fig4", "Interrupt rates, native vs overlay", fig4)
	register("fig5", "Per-core CPU%: softirq serialization and imbalance", fig5)
	register("fig6", "Flamegraph shares: sockperf vs memcached", fig6)
}

// fig4: hardware and software interrupt counts for the same fixed
// traffic. Paper: NET_RX 3.6x in the overlay, plus elevated RES from
// rebalancing attempts.
func fig4(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Fig 4: interrupts per second, 100Kpps UDP fixed rate, 100G",
		Columns: []string{"irq", "Host", "Con", "Con/Host"},
	}
	link := 100 * devices.Gbps
	host := udpFixedRate(workload.ModeHost, opt, link, 1024, 100_000)
	con := udpFixedRate(workload.ModeCon, opt, link, 1024, 100_000)
	secs := opt.window().Seconds()
	row := func(name string, h, c uint64) {
		hr, cr := float64(h)/secs, float64(c)/secs
		ratio := "-"
		if hr > 0 {
			ratio = fRatio(cr / hr)
		}
		t.AddRow(name, fmt.Sprintf("%.0f", hr), fmt.Sprintf("%.0f", cr), ratio)
	}
	row("HW", host.HardIRQs, con.HardIRQs)
	row("NET_RX", host.NetRX, con.NetRX)
	row("RES", host.RES, con.RES)
	return []*stats.Table{t}
}

// fig5: per-core utilization for single-flow and multi-flow fixed-rate
// tests. Paper: overlay softirqs stack on one core; multi-flow uses no
// more cores than flows, with visible imbalance.
func fig5(opt Options) []*stats.Table {
	var tables []*stats.Table
	link := 100 * devices.Gbps

	single := func(mode workload.Mode) workload.Result {
		return udpFixedRate(mode, opt, link, 1024, 250_000)
	}
	t1 := &stats.Table{
		Title:   "Fig 5 (single flow, 250Kpps): per-core busy%",
		Columns: []string{"mode", "c0", "c1", "c2", "c3", "c4", "c5", "softirq-max-core"},
	}
	for _, mode := range []workload.Mode{workload.ModeHost, workload.ModeCon} {
		r := single(mode)
		maxCore, maxV := 0, 0.0
		for c, v := range r.CoreSoftirq {
			if v > maxV {
				maxV, maxCore = v, c
			}
		}
		t1.AddRow(mode.String(),
			fPct(r.CoreBusy[0]), fPct(r.CoreBusy[1]), fPct(r.CoreBusy[2]),
			fPct(r.CoreBusy[3]), fPct(r.CoreBusy[4]), fPct(r.CoreBusy[5]),
			fmt.Sprintf("core%d=%s", maxCore, fPct(maxV)))
	}
	tables = append(tables, t1)

	multi := func(mode workload.Mode) workload.Result {
		tb := newBed(opt, workload.TestbedConfig{
			LinkRate: link, Cores: 16, Containers: 1,
			RSSCores: []int{0}, RPSCores: []int{1, 2, 3, 4, 5}, GRO: true, InnerGRO: true,
		})
		until := opt.warmup() + opt.window() + 5*sim.Millisecond
		var list []*workload.UDPFlow
		for i := 0; i < 5; i++ {
			var f *workload.UDPFlow
			if mode == workload.ModeHost {
				f = tb.NewUDPFlow(nil, workload.ServerIP, uint16(7000+i), uint16(5001+i),
					1024, 2+i%3, 10+i, uint64(i+1))
			} else {
				f = tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, uint16(7000+i), uint16(5001+i),
					1024, 2+i%3, 10+i, uint64(i+1))
			}
			f.SendAtRate(120_000, until)
			list = append(list, f)
		}
		return measureFlows(tb, list, opt)
	}
	t2 := &stats.Table{
		Title:   "Fig 5 (5 flows, 120Kpps each): busy cores and imbalance",
		Columns: []string{"mode", "busy-cores(>10%)", "max-core", "min-busy-core", "imbalance"},
	}
	for _, mode := range []workload.Mode{workload.ModeHost, workload.ModeCon} {
		r := multi(mode)
		busy := 0
		maxV, minV := 0.0, 1.0
		for c := 0; c < 8; c++ {
			u := r.CoreBusy[c]
			if u > 0.10 {
				busy++
				if u > maxV {
					maxV = u
				}
				if u < minV {
					minV = u
				}
			}
		}
		if busy == 0 {
			minV = 0
		}
		t2.AddRow(mode.String(), fmt.Sprintf("%d", busy), fPct(maxV), fPct(minV),
			fRatio(maxV/maxf(minV, 0.01)))
	}
	tables = append(tables, t2)
	return tables
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// fig6: per-function CPU shares (the flamegraph annotations). Paper:
// sockperf spreads across roughly equal softirqs; memcached's realistic
// mix makes some softirqs far more expensive.
func fig6(opt Options) []*stats.Table {
	var tables []*stats.Table
	link := 100 * devices.Gbps

	// sockperf: uniform single-size UDP stress.
	tb := newSingleFlowBed(workload.ModeCon, opt, link, false)
	until := opt.warmup() + opt.window() + 5*sim.Millisecond
	sock, _ := tb.StressFlood(true, 3, 1024, singleFlowAppCore, until)
	_ = sock
	tb.Run(opt.warmup())
	tb.Server.ResetMeasurement()
	tb.Run(opt.warmup() + opt.window())
	tables = append(tables, tb.Server.M.Acct.Table("Fig 6 (sockperf, overlay): CPU share by function", 10))
	tables = append(tables, inclusiveStageShares(tb.Server.M.Acct,
		"Fig 6 (sockperf): inclusive poll-subtree shares (flamegraph view)"))

	// memcached: mixed sizes and bidirectional traffic. Its closed-loop
	// clients share state with the server, so both hosts share a shard.
	tbm := newSingleFlowBed(workload.ModeCon, opt, link, true)
	m := startMemcachedOn(tbm, 10, 100, 200*sim.Microsecond, until)
	_ = m
	tbm.Run(opt.warmup())
	tbm.Server.ResetMeasurement()
	tbm.Run(opt.warmup() + opt.window())
	tables = append(tables, tbm.Server.M.Acct.Table("Fig 6 (memcached, overlay): CPU share by function", 10))
	tables = append(tables, inclusiveStageShares(tbm.Server.M.Acct,
		"Fig 6 (memcached): inclusive poll-subtree shares (flamegraph view)"))
	return tables
}

// inclusiveStageShares renders flamegraph-style *inclusive* shares for
// the three poll functions the paper annotates: everything executed
// under mlx5e_napi_poll, gro_cell_poll, and process_backlog.
func inclusiveStageShares(p *cpu.Ledger, title string) *stats.Table {
	t := &stats.Table{Title: title, Columns: []string{"subtree", "inclusive share"}}
	sum := func(fns ...costmodel.Func) float64 {
		s := 0.0
		for _, fn := range fns {
			s += p.Share(fn)
		}
		return s
	}
	// pNIC napi subtree: poll, alloc, GRO (outer), plus the netif/RPS
	// demux it calls.
	napi := sum(costmodel.FnNAPIPoll, costmodel.FnSKBAlloc, costmodel.FnGROReceive,
		costmodel.FnRPS)
	// gro_cell subtree: the VXLAN device stage through bridge and veth.
	groCell := sum(costmodel.FnGROCellPoll, costmodel.FnBridge, costmodel.FnVethXmit)
	// backlog subtree: process_backlog plus the L3/L4 receive it drives.
	backlog := sum(costmodel.FnBacklog, costmodel.FnIPRcv, costmodel.FnUDPRcv,
		costmodel.FnTCPRcv, costmodel.FnVXLANRcv, costmodel.FnSocketDeliver)
	t.AddRow("mlx5e_napi_poll", fPct(napi))
	t.AddRow("gro_cell_poll", fPct(groCell))
	t.AddRow("process_backlog", fPct(backlog))
	return t
}
