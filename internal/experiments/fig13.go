package experiments

import (
	"fmt"

	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/transport"
	"falcon/internal/workload"
)

func init() {
	register("fig13", "Multi-flow throughput: UDP 16B and TCP 4K (Host+/Falcon)", fig13)
}

// multiFlowBed builds the dedicated-core multi-flow testbed: RSS on core
// 0, RPS across cores 1–4, FALCON_CPUS on dedicated idle cores 10–15,
// application threads on 5–9/16–19.
func multiFlowBed(mode workload.Mode, opt Options, hostPlus bool) *workload.Testbed {
	tb := newBed(opt, workload.TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 20, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1, 2, 3, 4}, GRO: true, InnerGRO: true,
		Colocate: true, // the TCP flows' endpoints share connection state
	})
	if mode == workload.ModeFalcon || hostPlus {
		cfg := falconcore.DefaultConfig([]int{10, 11, 12, 13, 14, 15})
		tb.EnableFalconOnServer(cfg)
	}
	return tb
}

func multiAppCore(i int) int {
	cores := []int{5, 6, 7, 8, 9, 16, 17, 18, 19}
	return cores[i%len(cores)]
}

// fig13: multi-flow scaling. Paper: Falcon beats the vanilla overlay by
// up to 63% (UDP), GRO-splitting lifts even the host network ("Host+",
// +56%), and Falcon's overlay outperforms plain Host by up to 37% on TCP.
func fig13(opt Options) []*stats.Table {
	flowCounts := []int{1, 2, 4, 8}
	if opt.Quick {
		flowCounts = []int{2, 4}
	}
	var tables []*stats.Table

	// (a/b) UDP 16B flows, one flooding client per flow.
	tu := &stats.Table{
		Title:   "Fig 13(a,b): multi-flow UDP 16B packet rate (Kpps)",
		Columns: []string{"flows", "Host", "Con", "Falcon", "Falcon/Con"},
	}
	udp := func(mode workload.Mode, flows int) float64 {
		tb := multiFlowBed(mode, opt, false)
		stop := opt.warmup() + opt.window() + 5*sim.Millisecond
		var list []*workload.UDPFlow
		for i := 0; i < flows; i++ {
			var f *workload.UDPFlow
			if mode == workload.ModeHost {
				f = tb.NewUDPFlow(nil, workload.ServerIP, uint16(7000+i), uint16(5001+i),
					16, 2+i%4, multiAppCore(i), uint64(i+1))
			} else {
				f = tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, uint16(7000+i), uint16(5001+i),
					16, 2+i%4, multiAppCore(i), uint64(i+1))
			}
			f.Flood(stop)
			list = append(list, f)
		}
		return measureFlows(tb, list, opt).PPS
	}
	for _, flows := range flowCounts {
		h := udp(workload.ModeHost, flows)
		c := udp(workload.ModeCon, flows)
		f := udp(workload.ModeFalcon, flows)
		tu.AddRow(fmt.Sprintf("%d", flows), fKpps(h), fKpps(c), fKpps(f), fRatio(f/c))
	}
	tables = append(tables, tu)

	// (c/d) TCP 4K bulk flows; Host+ adds GRO splitting to the host.
	tt := &stats.Table{
		Title:   "Fig 13(c,d): multi-flow TCP 4K goodput (Gbps)",
		Columns: []string{"flows", "Host", "Host+", "Con", "Falcon", "Host+/Host", "Falcon/Host"},
	}
	tcp := func(mode workload.Mode, flows int, hostPlus bool) float64 {
		tb := multiFlowBed(mode, opt, hostPlus)
		var cs []*transport.Conn
		for i := 0; i < flows; i++ {
			cfg := newTCPConfig(tb, mode, 4096, i)
			cfg.AppCore = multiAppCore(i)
			cfg.SenderCore = 2 + i%4
			c := mustDial(tb, cfg)
			c.StartContinuous()
			cs = append(cs, c)
		}
		tb.Run(opt.warmup())
		base := uint64(0)
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
	for _, flows := range flowCounts {
		h := tcp(workload.ModeHost, flows, false)
		hp := tcp(workload.ModeHost, flows, true)
		c := tcp(workload.ModeCon, flows, false)
		f := tcp(workload.ModeFalcon, flows, false)
		tt.AddRow(fmt.Sprintf("%d", flows), fGbps(h), fGbps(hp), fGbps(c), fGbps(f),
			fRatio(hp/h), fRatio(f/h))
	}
	tables = append(tables, tt)
	return tables
}
