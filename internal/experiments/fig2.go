package experiments

import (
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// Figure 2: the motivation study comparing the native host network with
// the vanilla container overlay (no Falcon yet).

func init() {
	register("fig2a", "Single-flow max throughput (Gbps), Host vs Overlay", fig2a)
	register("fig2b", "Single-flow UDP packet rate vs packet size", fig2b)
	register("fig2c", "Multi-flow packet rate, flow:core 1:1 and 4:1", fig2c)
	register("fig2d", "Single-flow latency, Host vs Overlay", fig2d)
}

// fig2a: throughput stress with 64 KB messages over 10G and 100G, UDP
// and TCP. Paper: near-native at 10G; 53% (UDP) / 47% (TCP) loss at 100G.
func fig2a(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Fig 2(a): single-flow throughput, 64K messages",
		Columns: []string{"link", "proto", "Host(Gbps)", "Con(Gbps)", "loss"},
	}
	const size = 65000
	for _, link := range []float64{10 * devices.Gbps, 100 * devices.Gbps} {
		host := udpStress(workload.ModeHost, opt, link, size)
		con := udpStress(workload.ModeCon, opt, link, size)
		hg, cg := host.GbpsFor(size), con.GbpsFor(size)
		t.AddRow(linkName(link), "UDP", fGbps(hg), fGbps(cg), fPct(1-cg/hg))

		hostT := tcpBulk(workload.ModeHost, opt, link, size, 1, false)
		conT := tcpBulk(workload.ModeCon, opt, link, size, 1, false)
		t.AddRow(linkName(link), "TCP", fGbps(hostT.Gbps), fGbps(conT.Gbps),
			fPct(1-conT.Gbps/hostT.Gbps))
	}
	return []*stats.Table{t}
}

// fig2b: UDP packet rate across packet sizes. Paper: the gap is largest
// at small sizes and persists on 100G across all sizes.
func fig2b(opt Options) []*stats.Table {
	var tables []*stats.Table
	sizes := []int{16, 256, 1024, 4096, 16384, 65000}
	for _, link := range []float64{10 * devices.Gbps, 100 * devices.Gbps} {
		t := &stats.Table{
			Title:   "Fig 2(b): UDP packet rate (Kpps) on " + linkName(link),
			Columns: []string{"size", "Host", "Con", "Con/Host"},
		}
		for _, size := range sizes {
			host := udpStress(workload.ModeHost, opt, link, size)
			con := udpStress(workload.ModeCon, opt, link, size)
			t.AddRow(sizeLabel(size), fKpps(host.PPS), fKpps(con.PPS),
				fRatio(con.PPS/host.PPS))
		}
		tables = append(tables, t)
	}
	return tables
}

// fig2c: multi-flow packet rate with 4 KB packets at flow-to-core
// ratios 1:1 and 4:1. Paper: overlay loss grows with the ratio and
// exceeds the single-flow loss even at 1:1 (hash-collision imbalance).
func fig2c(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Fig 2(c): multi-flow UDP packet rate (Kpps), 4K packets, 100G",
		Columns: []string{"flows:cores", "Host", "Con", "Con/Host"},
	}
	rpsCores := []int{1, 2, 3, 4}
	run := func(mode workload.Mode, flows int) float64 {
		tb := newBed(opt, workload.TestbedConfig{
			LinkRate: 100 * devices.Gbps, Cores: 16, Containers: 1,
			RSSCores: []int{0}, RPSCores: rpsCores, GRO: true, InnerGRO: true,
		})
		stop := opt.warmup() + opt.window() + 5*sim.Millisecond
		var socks []*socket.Socket
		for i := 0; i < flows; i++ {
			var f *workload.UDPFlow
			appCore := 8 + i%6
			if mode == workload.ModeHost {
				f = tb.NewUDPFlow(nil, workload.ServerIP, uint16(7000+i), uint16(5001+i),
					4096, 2+i%4, appCore, uint64(i+1))
			} else {
				f = tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, uint16(7000+i), uint16(5001+i),
					4096, 2+i%4, appCore, uint64(i+1))
			}
			f.Flood(stop)
			socks = append(socks, f.Sock)
		}
		res := workload.MeasureWindow(tb, socks, opt.warmup(), opt.window())
		return res.PPS
	}
	for _, ratio := range []struct {
		label string
		flows int
	}{{"1:1", 4}, {"4:1", 16}} {
		host := run(workload.ModeHost, ratio.flows)
		con := run(workload.ModeCon, ratio.flows)
		t.AddRow(ratio.label, fKpps(host), fKpps(con), fRatio(con/host))
	}
	return []*stats.Table{t}
}

// fig2d: per-packet latency under a light fixed rate. Paper: up to 2x
// (UDP) and 5x (TCP) higher latency for the overlay.
func fig2d(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Fig 2(d): single-flow latency (us), underloaded, 100G",
		Columns: []string{"proto", "metric", "Host", "Con", "Con/Host"},
	}
	link := 100 * devices.Gbps
	hostU := udpFixedRate(workload.ModeHost, opt, link, 1024, 50_000)
	conU := udpFixedRate(workload.ModeCon, opt, link, 1024, 50_000)
	t.AddRow("UDP", "avg", fUs(int64(hostU.Latency.Mean)), fUs(int64(conU.Latency.Mean)),
		fRatio(conU.Latency.Mean/hostU.Latency.Mean))
	t.AddRow("UDP", "p99", fUs(hostU.Latency.P99), fUs(conU.Latency.P99),
		fRatio(float64(conU.Latency.P99)/float64(hostU.Latency.P99)))

	hostT := tcpPaced(workload.ModeHost, opt, link, 1024, 20*sim.Microsecond)
	conT := tcpPaced(workload.ModeCon, opt, link, 1024, 20*sim.Microsecond)
	t.AddRow("TCP", "avg", fUs(int64(hostT.Mean)), fUs(int64(conT.Mean)),
		fRatio(conT.Mean/hostT.Mean))
	t.AddRow("TCP", "p99", fUs(hostT.P99), fUs(conT.P99),
		fRatio(float64(conT.P99)/float64(hostT.P99)))
	return []*stats.Table{t}
}
