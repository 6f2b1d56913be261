// Command netprof runs a workload on the simulated overlay and prints a
// flamegraph-style per-function CPU profile of the server — the tool
// behind the paper's Figures 6 and 9(a).
//
// Usage examples:
//
//	netprof -workload sockperf -size 1024
//	netprof -workload memcached
//	netprof -workload tcpbulk -size 4096 -percore
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"falcon/internal/apps"
	falconcore "falcon/internal/core"
	"falcon/internal/costmodel"
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/transport"
	"falcon/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "sockperf", "sockperf | memcached | tcpbulk")
		size     = flag.Int("size", 1024, "message size (sockperf/tcpbulk)")
		falconOn = flag.Bool("falcon", false, "enable Falcon on the server")
		kernel   = flag.String("kernel", "", `kernel profile ("4.19" default, "5.4")`)
		duration = flag.Duration("duration", 60*time.Millisecond, "virtual run time")
		perCore  = flag.Bool("percore", false, "also print per-core function time")
		topN     = flag.Int("top", 15, "number of functions to print")
	)
	flag.Parse()
	if !costmodel.Known(*kernel) {
		fmt.Fprintf(os.Stderr, "netprof: -kernel: want \"4.19\" or \"5.4\" (optionally \"linux-\" prefixed), got %q\n", *kernel)
		os.Exit(2)
	}

	tb := workload.NewTestbed(workload.TestbedConfig{
		Kernel: *kernel, LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1},
		GRO: true, InnerGRO: true,
	})
	if *falconOn {
		tb.EnableFalconOnServer(falconcore.DefaultConfig([]int{3, 4, 5}))
	}

	until := sim.Time(duration.Nanoseconds())
	warm := until / 4
	switch *wl {
	case "sockperf":
		tb.StressFlood(true, 3, *size, 2, until)
	case "memcached":
		apps.StartMemcached(apps.MemcachedConfig{
			ServerHost: tb.Server, ServerCtr: tb.ServerCtrs[0],
			ServerCores: []int{6, 7, 8, 9}, Port: 11211,
			ClientHost: tb.Client, ClientCtr: tb.ClientCtrs[0],
			ClientThreads: 4, ClientCoreBase: 2, Connections: 100,
			ThinkTime: 300 * sim.Microsecond,
		}, until)
	case "tcpbulk":
		c, err := transport.Dial(transport.Config{
			Net:        tb.Net,
			SenderHost: tb.Client, SenderCtr: tb.ClientCtrs[0], SenderCore: 2, SrcPort: 40000,
			ReceiverHost: tb.Server, ReceiverCtr: tb.ServerCtrs[0], AppCore: 2, DstPort: 5201,
			MsgSize: *size, FlowID: 1,
		}, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netprof: %v\n", err)
			os.Exit(1)
		}
		c.StartContinuous()
	default:
		fmt.Fprintf(os.Stderr, "netprof: unknown workload %q\n", *wl)
		os.Exit(2)
	}

	tb.Run(warm)
	tb.Server.ResetMeasurement()
	tb.Run(until)

	prof := tb.Server.M.Prof
	fmt.Println(prof.Table(fmt.Sprintf("server CPU profile: %s (falcon=%v)", *wl, *falconOn), *topN))

	if *perCore {
		fmt.Println("per-core function time (ms):")
		for c := 0; c < tb.Server.M.NumCores(); c++ {
			if tb.Server.M.Acct.TotalBusy(c) == 0 {
				continue
			}
			fmt.Printf("  core%d:\n", c)
			for fn := costmodel.Func(0); fn < costmodel.NumFuncs; fn++ {
				if t := prof.CoreTime(c, fn); t > 0 {
					fmt.Printf("    %-20s %8.3f\n", fn, float64(t)/1e6)
				}
			}
		}
	}
}
