package experiments

import (
	"fmt"

	"falcon/internal/costmodel"
	"falcon/internal/devices"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

func init() {
	register("fig9a", "Stage-1 saturation under TCP 4K (skb_alloc + GRO)", fig9a)
	register("fig10", "UDP stress packet rates: Host/Con/Falcon x kernels x links", fig10)
	register("fig11", "Per-core CPU breakdown, 16B single-flow UDP", fig11)
}

// fig9a: under bulk TCP with 4 KB segments, the pNIC stage saturates one
// core with skb_allocation and napi_gro_receive contributing ~45% each —
// the motivation for softirq splitting.
func fig9a(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Fig 9(a): pNIC-stage functions under TCP bulk (100G)",
		Columns: []string{"size", "napi-core busy", "skb_alloc share", "gro share", "alloc+gro"},
	}
	for _, size := range []int{1024, 4096} {
		tb := newSingleFlowBed(workload.ModeCon, opt, 100*devices.Gbps, true)
		c := mustDial(tb, newTCPConfig(tb, workload.ModeCon, size, 0))
		c.StartContinuous()
		tb.Run(opt.warmup())
		tb.Server.ResetMeasurement()
		tb.Run(opt.warmup() + opt.window())
		acct := tb.Server.M.Acct
		// Shares of the NAPI core's softirq time.
		napiBusy := acct.Utilization(0)
		coreTotal := float64(acct.TotalBusy(0))
		alloc := float64(acct.CoreTime(0, costmodel.FnSKBAlloc)) / maxf(coreTotal, 1)
		gro := float64(acct.CoreTime(0, costmodel.FnGROReceive)) / maxf(coreTotal, 1)
		t.AddRow(sizeLabel(size), fPct(napiBusy), fPct(alloc), fPct(gro), fPct(alloc+gro))
		c.Close()
	}
	return []*stats.Table{t}
}

// fig10: the headline single-flow UDP stress across kernels, links and
// packet sizes. Paper: Falcon near-native at 10G and up to 87% of host
// at 100G, with the residual gap below-MTU sizes.
func fig10(opt Options) []*stats.Table {
	var tables []*stats.Table
	sizes := []int{16, 1024, 4096, 65000}
	if opt.Quick {
		sizes = []int{16, 4096}
	}
	kernels := []string{"linux-4.19", "linux-5.4"}
	links := []float64{10 * devices.Gbps, 100 * devices.Gbps}
	for _, kernel := range kernels {
		for _, link := range links {
			t := &stats.Table{
				Title:   fmt.Sprintf("Fig 10: UDP stress packet rate (Kpps), %s, %s", kernel, linkName(link)),
				Columns: []string{"size", "Host", "Con", "Falcon", "Con/Host", "Falcon/Host"},
			}
			lt := &stats.Table{
				Title:   fmt.Sprintf("Fig 10 latency, p50/p99/p99.9 (us), %s, %s", kernel, linkName(link)),
				Columns: []string{"size", "Host", "Con", "Falcon"},
			}
			kopt := opt
			kopt.Kernel = kernel
			for _, size := range sizes {
				host := udpStress(workload.ModeHost, kopt, link, size)
				con := udpStress(workload.ModeCon, kopt, link, size)
				fal := udpStress(workload.ModeFalcon, kopt, link, size)
				t.AddRow(sizeLabel(size), fKpps(host.PPS), fKpps(con.PPS), fKpps(fal.PPS),
					fRatio(con.PPS/host.PPS), fRatio(fal.PPS/host.PPS))
				lt.AddRow(sizeLabel(size), fP3(host.Latency), fP3(con.Latency), fP3(fal.Latency))
			}
			tables = append(tables, t, lt)
		}
	}
	return tables
}

// fP3 renders a latency summary as "p50/p99/p99.9" in µs.
func fP3(s stats.Summary) string {
	return fUs(s.P50) + "/" + fUs(s.P99) + "/" + fUs(s.P999)
}

// fig11: per-core CPU breakdown for the 16B single-flow stress. Paper:
// host uses cores 0 (irq+steer), 1 (softirq) and 2 (user); the vanilla
// overlay overloads core 1 with three softirqs; Falcon recruits two
// extra cores and shifts the bottleneck to user-space receive.
func fig11(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Fig 11: per-core CPU% (hardirq/softirq/task), 16B UDP stress, 100G",
		Columns: []string{"mode", "core", "busy", "hardirq", "softirq", "task"},
	}
	for _, mode := range []workload.Mode{workload.ModeHost, workload.ModeCon, workload.ModeFalcon} {
		r := udpStress(mode, opt, 100*devices.Gbps, 16)
		for c := 0; c <= 5; c++ {
			if r.CoreBusy[c] < 0.02 {
				continue
			}
			hard := r.CoreBusy[c] - r.CoreSoftirq[c] - r.CoreTask[c]
			if hard < 0 {
				hard = 0
			}
			t.AddRow(mode.String(), fmt.Sprintf("core%d", c),
				fPct(r.CoreBusy[c]), fPct(hard), fPct(r.CoreSoftirq[c]), fPct(r.CoreTask[c]))
		}
	}
	return []*stats.Table{t}
}
