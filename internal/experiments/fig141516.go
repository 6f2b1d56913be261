package experiments

import (
	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

func init() {
	register("fig14", "Multi-container throughput in busy systems", fig14)
	register("fig15", "FALCON_LOAD_THRESHOLD sensitivity", fig15)
	register("fig16", "Adaptability: dynamic two-choice vs static hashing", fig16)
	register("abl-balancer", "Ablation: static vs two-choice vs least-loaded balancing", ablBalancer)
}

// ablBalancer runs the hotspot workload under all three balancing
// strategies. The paper's Section 4.3 rationale reproduces directly:
// static hashing cannot move softirqs off a hot core; per-packet
// least-loaded selection herds packets onto whichever core the (stale,
// tick-refreshed) load estimate names — and, because it abandons the
// flow/device pin, it delivers packets out of order; the two-choice
// design gets the throughput without either pathology.
func ablBalancer(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Ablation: balancer strategies under a hotspot (100G)",
		Columns: []string{"balancer", "throughput(Kpps)", "vs static", "order violations"},
	}
	seeds := []uint64{1, 2}
	if opt.Quick {
		seeds = []uint64{1}
	}
	type row struct {
		label                  string
		twoChoice, leastLoaded bool
	}
	rows := []row{
		{"static hash", false, false},
		{"two-choice (falcon)", true, false},
		{"least-loaded per packet", false, true},
	}
	var static float64
	for _, r := range rows {
		var pps float64
		var viols uint64
		for _, seed := range seeds {
			p, v := hotspot(opt, seed, r.twoChoice, r.leastLoaded)
			pps += p
			viols += v
		}
		pps /= float64(len(seeds))
		if r.label == "static hash" {
			static = pps
		}
		t.AddRow(stats.Text(r.label), fKpps(pps), fRatio(pps/max(static, 1)), fCount(viols))
	}
	return []*stats.Table{t}
}

// busySystemBed: the fig 14–15 configuration — packet receiving limited
// to six cores (0–5) which are also FALCON_CPUS, applications on the
// remaining cores. Falcon must find idle cycles among the receiving
// cores themselves.
func busySystemBed(opt Options, falconCfg *falconcore.Config) *workload.Testbed {
	tb := newBed(opt, workload.TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 16, Containers: 40,
		RSSCores: []int{0, 1, 2, 3, 4, 5}, RPSCores: []int{0, 1, 2, 3, 4, 5},
		GRO: true, InnerGRO: true,
	})
	if falconCfg != nil {
		tb.EnableFalconOnServer(*falconCfg)
	}
	return tb
}

// runBusy drives one fixed-rate flow per container and measures.
func runBusy(tb *workload.Testbed, opt Options, containers int, pps float64) workload.Result {
	stop := opt.warmup() + opt.window() + 5*sim.Millisecond
	var list []*workload.UDPFlow
	for i := 0; i < containers; i++ {
		f := tb.NewUDPFlow(tb.ClientCtrs[i], tb.ServerCtrs[i].IP,
			uint16(7000+i), 5001, 1024, 2+i%6, 6+i%10, uint64(i+1))
		f.SendAtRate(pps, stop)
		list = append(list, f)
	}
	return measureFlows(tb, list, opt)
}

// perContainerRate drives the six receiving cores from ~70% busy at 6
// containers toward overload at 40.
const perContainerRate = 225_000

// fig14: paper: Falcon gains up to 27% (UDP) with idle headroom, the
// gain diminishes as utilization climbs, and Falcon never underperforms
// RSS/RPS because the load gate disables it when the system saturates.
func fig14(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Fig 14: multi-container UDP throughput (Kpps) on 6 rx cores",
		Columns: []string{"containers", "Con", "Falcon", "gain", "rx-util(Con)", "rx-util(Falcon)"},
	}
	counts := []int{6, 10, 20, 30, 40}
	if opt.Quick {
		counts = []int{6, 20}
	}
	for _, n := range counts {
		con := runBusy(busySystemBed(opt, nil), opt, n, perContainerRate)
		cfg := falconcore.DefaultConfig([]int{0, 1, 2, 3, 4, 5})
		fal := runBusy(busySystemBed(opt, &cfg), opt, n, perContainerRate)
		rxUtil := func(r workload.Result) float64 {
			s := 0.0
			for c := 0; c < 6; c++ {
				s += r.CoreBusy[c]
			}
			return s / 6
		}
		t.AddRow(fCount(n), fKpps(con.PPS), fKpps(fal.PPS),
			fPct(fal.PPS/con.PPS-1), fPct(rxUtil(con)), fPct(rxUtil(fal)))
	}
	return []*stats.Table{t}
}

// fig15: sweep FALCON_LOAD_THRESHOLD on the busy system at two load
// levels. Paper: a low threshold (<=70%) turns Falcon off while idle
// cycles still exist (missing the gains visible at moderate load);
// always-on keeps paying pipelining overhead after the system
// saturates; 80-90% captures both regimes.
func fig15(opt Options) []*stats.Table {
	var tables []*stats.Table
	type setting struct {
		label    string
		thr      float64
		alwaysOn bool
	}
	settings := []setting{
		{"always-on", 0, true},
		{"50%", 0.5, false},
		{"70%", 0.7, false},
		{"80%", 0.8, false},
		{"90%", 0.9, false},
	}
	if opt.Quick {
		settings = []setting{{"always-on", 0, true}, {"50%", 0.5, false}, {"90%", 0.9, false}}
	}
	loads := []struct {
		label      string
		containers int
	}{
		{"moderate (8 containers)", 8},
		{"saturated (32 containers)", 32},
	}
	for _, load := range loads {
		t := &stats.Table{
			Title:   "Fig 15: threshold sensitivity, " + load.label,
			Columns: []string{"threshold", "throughput(Kpps)", "vs Con"},
		}
		base := runBusy(busySystemBed(opt, nil), opt, load.containers, perContainerRate)
		t.AddRow(stats.Text("Con (no falcon)"), fKpps(base.PPS), fRatio(1))
		for _, s := range settings {
			cfg := falconcore.DefaultConfig([]int{0, 1, 2, 3, 4, 5})
			cfg.AlwaysOn = s.alwaysOn
			if s.thr > 0 {
				cfg.LoadThreshold = s.thr
			}
			r := runBusy(busySystemBed(opt, &cfg), opt, load.containers, perContainerRate)
			t.AddRow(stats.Text(s.label), fKpps(r.PPS), fRatio(r.PPS/base.PPS))
		}
		tables = append(tables, t)
	}
	return tables
}

// fig16: hotspot adaptability. Several fixed-rate flows share the rx
// cores; mid-run one flow's intensity jumps, overloading its hashed
// core. The static balancer (no second choice) cannot move softirqs
// away; the dynamic two-choice balancer re-steers and recovers. Paper:
// +18% UDP throughput, consistent across runs.
func fig16(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Fig 16: hotspot adaptability (Kpps after intensity shift)",
		Columns: []string{"balancer", "throughput", "vs static"},
	}
	seeds := []uint64{1, 2, 3}
	if opt.Quick {
		seeds = []uint64{1}
	}
	var stat, dyn float64
	for _, s := range seeds {
		st, _ := hotspot(opt, s, false, false)
		dy, _ := hotspot(opt, s, true, false)
		stat, dyn = stat+st, dyn+dy
	}
	stat /= float64(len(seeds))
	dyn /= float64(len(seeds))
	t.AddRow(stats.Text("static (first choice only)"), fKpps(stat), fRatio(1))
	t.AddRow(stats.Text("dynamic (two-choice)"), fKpps(dyn), fRatio(dyn/stat))
	return []*stats.Table{t}
}

// hotspot runs the busy-system bed's eight fixed-rate flows, one of
// which becomes an elephant mid-warmup, under the given balancer, and
// returns the delivered rate and the flows' order violations.
func hotspot(opt Options, seed uint64, twoChoice, leastLoaded bool) (float64, uint64) {
	o := opt
	o.Seed = seed
	cfg := falconcore.DefaultConfig([]int{0, 1, 2, 3, 4, 5})
	cfg.TwoChoice = twoChoice
	cfg.LeastLoaded = leastLoaded
	tb := busySystemBed(o, &cfg)
	stop := o.warmup() + o.window() + 5*sim.Millisecond
	var list []*workload.UDPFlow
	for i := 0; i < 8; i++ {
		f := tb.NewUDPFlow(tb.ClientCtrs[i], tb.ServerCtrs[i].IP,
			uint16(7000+i), 5001, 1024, 2+i%6, 6+i%10, uint64(i+1))
		f.SendAtRate(60_000, stop)
		list = append(list, f)
	}
	tb.E.At(o.warmup()/2, func() { list[0].SetRate(400_000) })
	res := measureFlows(tb, list, o)
	var viols uint64
	for _, f := range list {
		viols += f.Sock.OrderViols
	}
	return res.PPS, viols
}
