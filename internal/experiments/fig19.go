package experiments

import (
	"falcon/internal/devices"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

func init() {
	register("fig19", "Overhead: CPU usage and softirq counts at fixed rates", fig19)
}

// fig19: Falcon's overhead. At fixed packet rates, total CPU usage with
// Falcon stays within ~10% of the vanilla overlay (loss of locality is
// offset by avoiding softirq-context thrash), while Falcon raises more
// softirqs (+44.6% at 400 Kpps in the paper) because cross-core raises
// to idle cores cannot coalesce.
func fig19(opt Options) []*stats.Table {
	link := 100 * devices.Gbps
	rates := []float64{100_000, 200_000, 300_000, 400_000}
	if opt.Quick {
		rates = []float64{200_000}
	}

	cpu := &stats.Table{
		Title:   "Fig 19(a): total CPU usage (cores) at fixed 16B UDP rates",
		Columns: []string{"rate(Kpps)", "Host", "Con", "Falcon", "Falcon/Con"},
	}
	irq := &stats.Table{
		Title:   "Fig 19(b): NET_RX softirqs per second at fixed rates",
		Columns: []string{"rate(Kpps)", "Con", "Falcon", "Falcon/Con"},
	}
	totalCPU := func(r workload.Result) float64 {
		s := 0.0
		for _, u := range r.CoreBusy {
			s += u
		}
		return s
	}
	secs := opt.window().Seconds()
	for _, rate := range rates {
		host := udpFixedRate(workload.ModeHost, opt, link, 16, rate)
		con := udpFixedRate(workload.ModeCon, opt, link, 16, rate)
		fal := udpFixedRate(workload.ModeFalcon, opt, link, 16, rate)
		hc, cc, fc := totalCPU(host), totalCPU(con), totalCPU(fal)
		cpu.AddRow(fKpps(rate), stats.Num("%.2f", hc), stats.Num("%.2f", cc),
			stats.Num("%.2f", fc), fRatio(fc/max(cc, 0.001)))
		irq.AddRow(fKpps(rate),
			stats.Num("%.0f", float64(con.NetRX)/secs), stats.Num("%.0f", float64(fal.NetRX)/secs),
			fRatio(float64(fal.NetRX)/max(float64(con.NetRX), 1)))
	}
	return []*stats.Table{cpu, irq}
}
