package experiments

import (
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
	// webOp is one operation's measured window, read out before the
	// next bed is built (which finishes this one under -audit).
	type webOp struct {
		name        string
		completed   uint64
		resp, delay float64
	}
	run := func(falconOn bool) []webOp {
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
		w.ResetLatency()
		begin := make([]uint64, len(w.Stats))
		for i, st := range w.Stats {
			begin[i] = st.Completed.Value()
		}
		tb.Run(3*opt.warmup() + 3*opt.window())
		ops := make([]webOp, len(w.Stats))
		for i, st := range w.Stats {
			ops[i] = webOp{st.Op.Name, st.Completed.Value() - begin[i], st.Resp.Mean(), st.Delay.Mean()}
		}
		return ops
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
	for i := range con {
		c, f := con[i], fal[i]
		if c.completed == 0 && f.completed == 0 {
			continue
		}
		cr := float64(c.completed) / secs
		fr := float64(f.completed) / secs
		name := stats.Text(c.name)
		rate.AddRow(name, stats.Num("%.1f", cr), stats.Num("%.1f", fr), fPct(fr/max(cr, 0.001)-1))
		resp.AddRow(name, fUs(int64(c.resp)), fUs(int64(f.resp)), fPct(1-f.resp/max(c.resp, 1)))
		delay.AddRow(name, fUs(int64(c.delay)), fUs(int64(f.delay)), fPct(1-f.delay/max(c.delay, 1)))
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
			m.ResetLatency()
			begin := m.Completed()
			tb.Run(2*opt.warmup() + 2*opt.window())
			lat := m.Latency()
			mode := workload.ModeCon
			if falconOn {
				mode = workload.ModeFalcon
			}
			ops := float64(m.Completed()-begin) / (2 * opt.window()).Seconds()
			t.AddRow(fCount(threads), stats.Text(mode.String()),
				fUs(int64(lat.Mean)), fUs(lat.P99), stats.Num("%.0f", ops))
		}
	}
	return []*stats.Table{t}
}
