package experiments

import (
	"fmt"

	"falcon/internal/apps"
	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

func init() {
	register("fig17", "Web serving: op rate, response time, delay (Con vs Falcon)", fig17)
	register("fig18", "Data caching: memcached avg and p99 latency", fig18)
}

// appsBed: the application testbed. As on the paper's testbed, the
// server's application threads and its packet processing share the same
// pool of cores (RPS hashes flows across all of them): under load,
// softirqs of colliding flows pile onto cores that are also running
// application threads. Falcon's device-aware two-choice placement
// steers softirqs toward less-loaded cores, which is where its large
// application-level gains come from (Section 6.2).
func appsBed(opt Options, falconOn bool) *workload.Testbed {
	tb := newBed(opt, workload.TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 4,
		RSSCores: []int{0}, RPSCores: []int{0}, GRO: true, InnerGRO: true,
		Colocate: true, // RPC clients and servers share state across hosts
	})
	if falconOn {
		tb.EnableFalconOnServer(falconcore.DefaultConfig([]int{0, 1, 2, 3, 4, 5}))
		// Falcon also helps the client host's receive path (responses).
		tb.Client.EnableFalcon(falconcore.DefaultConfig([]int{0, 1, 2, 3, 4, 5}))
	}
	return tb
}

// fig17: CloudSuite Web Serving with 200 users. Paper: Falcon raises
// per-op success rates by up to 300% and cuts response/delay times by up
// to 63%/53%.
func fig17(opt Options) []*stats.Table {
	users := 250
	think := 500 * sim.Microsecond
	if opt.Quick {
		users = 200
	}
	run := func(falconOn bool) *apps.Web {
		tb := appsBed(opt, falconOn)
		stop := 3*opt.warmup() + 3*opt.window()
		w := apps.StartWeb(apps.WebConfig{
			ServerHost: tb.Server,
			WebCtr:     tb.ServerCtrs[0], CacheCtr: tb.ServerCtrs[1], DBCtr: tb.ServerCtrs[2],
			WebCores: []int{8, 9}, CacheCore: 10, DBCore: 11,
			WorkScale:  0.05,
			ClientHost: tb.Client, ClientCtr: tb.ClientCtrs[0],
			Users: users, ClientCores: []int{6, 7, 8, 9},
			ThinkTime: think,
		}, stop)
		tb.Run(opt.warmup() * 3)
		w.ResetMeasurement()
		tb.Run(3*opt.warmup() + 3*opt.window())
		return w
	}
	con := run(false)
	fal := run(true)

	rate := &stats.Table{
		Title:   "Fig 17(a): successful operations per second",
		Columns: []string{"operation", "Con", "Falcon", "gain"},
	}
	resp := &stats.Table{
		Title:   "Fig 17(b): average response time (us)",
		Columns: []string{"operation", "Con", "Falcon", "reduction"},
	}
	delay := &stats.Table{
		Title:   "Fig 17(c): average delay over target (us)",
		Columns: []string{"operation", "Con", "Falcon", "reduction"},
	}
	secs := (3 * opt.window()).Seconds()
	for i := range con.Stats {
		c, f := con.Stats[i], fal.Stats[i]
		if c.Completed.Value() == 0 && f.Completed.Value() == 0 {
			continue
		}
		cr := float64(c.Completed.Value()) / secs
		fr := float64(f.Completed.Value()) / secs
		rate.AddRow(c.Op.Name, fmt.Sprintf("%.1f", cr), fmt.Sprintf("%.1f", fr),
			fPct(fr/maxf(cr, 0.001)-1))
		cm, fm := c.Resp.Mean(), f.Resp.Mean()
		resp.AddRow(c.Op.Name, fUs(int64(cm)), fUs(int64(fm)), fPct(1-fm/maxf(cm, 1)))
		cd, fd := c.Delay.Mean(), f.Delay.Mean()
		delay.AddRow(c.Op.Name, fUs(int64(cd)), fUs(int64(fd)), fPct(1-fd/maxf(cd, 1)))
	}
	return []*stats.Table{rate, resp, delay}
}

// fig18: memcached latency at 1 and 10 client threads (100 connections,
// 550-byte objects). Paper: −7% p99 with one client, −51%/−53% avg/p99
// with ten.
func fig18(opt Options) []*stats.Table {
	t := &stats.Table{
		Title:   "Fig 18: memcached latency (us), 100 connections",
		Columns: []string{"clients", "mode", "avg", "p99", "ops/s"},
	}
	think := 1500 * sim.Microsecond
	for _, threads := range []int{1, 10} {
		for _, falconOn := range []bool{false, true} {
			tb := appsBed(opt, falconOn)
			stop := 2*opt.warmup() + 2*opt.window()
			m := startMemcachedOn(tb, threads, 100, think/sim.Time(threads), stop)
			tb.Run(2 * opt.warmup())
			m.ResetMeasurement()
			tb.Run(2*opt.warmup() + 2*opt.window())
			lat := m.Latency()
			mode := workload.ModeCon
			if falconOn {
				mode = workload.ModeFalcon
			}
			ops := float64(m.Completed()) / (2 * opt.window()).Seconds()
			t.AddRow(fmt.Sprintf("%d", threads), mode.String(),
				fUs(int64(lat.Mean)), fUs(lat.P99), fmt.Sprintf("%.0f", ops))
		}
	}
	return []*stats.Table{t}
}
