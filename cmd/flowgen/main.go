// Command flowgen drives standalone traffic through the simulated
// testbed and reports delivery, latency and per-core utilization — a
// sockperf-style measurement tool for exploring configurations outside
// the canned experiments.
//
// Usage examples:
//
//	flowgen -mode con -size 16 -flows 1 -stress
//	flowgen -mode falcon -size 4096 -flows 4 -rate 200000
//	flowgen -mode host -proto tcp -size 4096 -duration 80ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	falconcore "falcon/internal/core"
	"falcon/internal/costmodel"
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
	"falcon/internal/transport"
	"falcon/internal/workload"
)

func main() {
	var (
		mode     = flag.String("mode", "con", "host | con | falcon")
		protoF   = flag.String("proto", "udp", "udp | tcp")
		size     = flag.Int("size", 1024, "message size in bytes")
		flows    = flag.Int("flows", 1, "concurrent flows")
		rate     = flag.Float64("rate", 0, "per-flow packet rate (UDP; 0 with -stress floods)")
		stress   = flag.Bool("stress", false, "flood at maximum sender rate (UDP)")
		linkGbps = flag.Float64("link", 100, "link rate in Gb/s")
		kernel   = flag.String("kernel", "", `kernel profile ("4.19" default, "5.4")`)
		duration = flag.Duration("duration", 60*time.Millisecond, "virtual run time")
		warmup   = flag.Duration("warmup", 15*time.Millisecond, "virtual warmup excluded from measurement")
		seed     = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if !costmodel.Known(*kernel) {
		fmt.Fprintf(os.Stderr, "flowgen: -kernel: want \"4.19\" or \"5.4\" (optionally \"linux-\" prefixed), got %q\n", *kernel)
		os.Exit(2)
	}

	tb := workload.NewTestbed(workload.TestbedConfig{
		Kernel: *kernel, LinkRate: *linkGbps * devices.Gbps, Cores: 16, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1, 2, 3, 4},
		GRO: true, InnerGRO: true, Seed: *seed,
	})
	var m workload.Mode
	switch *mode {
	case "host":
		m = workload.ModeHost
	case "con":
		m = workload.ModeCon
	case "falcon":
		m = workload.ModeFalcon
		tb.EnableFalconOnServer(falconcore.DefaultConfig([]int{10, 11, 12, 13}))
	default:
		fmt.Fprintf(os.Stderr, "flowgen: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	wu := sim.Time(warmup.Nanoseconds())
	until := sim.Time(duration.Nanoseconds())
	if until <= wu {
		fmt.Fprintln(os.Stderr, "flowgen: duration must exceed warmup")
		os.Exit(2)
	}
	window := until - wu

	var socks []*socket.Socket
	var conns []*transport.Conn
	switch *protoF {
	case "udp":
		for i := 0; i < *flows; i++ {
			var f *workload.UDPFlow
			if m == workload.ModeHost {
				f = tb.NewUDPFlow(nil, workload.ServerIP, uint16(7000+i), uint16(5001+i),
					*size, 2+i%4, 5+i%5, uint64(i+1))
			} else {
				f = tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, uint16(7000+i), uint16(5001+i),
					*size, 2+i%4, 5+i%5, uint64(i+1))
			}
			if *stress || *rate <= 0 {
				f.Flood(until)
			} else {
				f.SendAtRate(*rate, until)
			}
			socks = append(socks, f.Sock)
		}
	case "tcp":
		for i := 0; i < *flows; i++ {
			cfg := transport.Config{
				Net:        tb.Net,
				SenderHost: tb.Client, SenderCore: 2 + i%4, SrcPort: uint16(40000 + i),
				ReceiverHost: tb.Server, AppCore: 5 + i%5, DstPort: uint16(5200 + i),
				MsgSize: *size, FlowID: uint64(i + 1),
			}
			if m != workload.ModeHost {
				cfg.SenderCtr = tb.ClientCtrs[0]
				cfg.ReceiverCtr = tb.ServerCtrs[0]
			}
			c, err := transport.Dial(cfg, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "flowgen: %v\n", err)
				os.Exit(1)
			}
			c.StartContinuous()
			conns = append(conns, c)
			socks = append(socks, c.Socket())
		}
	default:
		fmt.Fprintf(os.Stderr, "flowgen: unknown proto %q\n", *protoF)
		os.Exit(2)
	}

	var tcpBase uint64
	tb.Run(wu)
	for _, c := range conns {
		tcpBase += c.BytesAssembled.Value()
	}
	res := workload.MeasureWindow(tb, socks, wu, window)

	fmt.Printf("mode=%s proto=%s size=%dB flows=%d link=%.0fG window=%v\n",
		*mode, *protoF, *size, *flows, *linkGbps, window)
	fmt.Printf("delivered: %d pkts, %.1f Kpps, %.2f Gbps goodput\n",
		res.Delivered, res.PPS/1e3, res.GbpsFor(*size))
	if len(conns) > 0 {
		var bytes uint64
		for _, c := range conns {
			bytes += c.BytesAssembled.Value()
		}
		fmt.Printf("tcp stream: %.2f Gbps assembled\n",
			float64(bytes-tcpBase)*8/window.Seconds()/1e9)
	}
	fmt.Printf("latency: %v\n", res.Latency)
	fmt.Printf("drops: nic=%d backlog=%d socket=%d\n",
		res.NICDrops, res.BacklogDrops, res.SocketDrops)
	fmt.Printf("irqs/s: hw=%.0f net_rx=%.0f res=%.0f\n",
		float64(res.HardIRQs)/window.Seconds(),
		float64(res.NetRX)/window.Seconds(),
		float64(res.RES)/window.Seconds())
	fmt.Println("server cores (busy | softirq | task):")
	for c := 0; c < len(res.CoreBusy); c++ {
		if res.CoreBusy[c] < 0.01 {
			continue
		}
		fmt.Printf("  core%-2d %s %5.1f%% | %5.1f%% | %5.1f%%\n", c,
			stats.Bar(res.CoreBusy[c], 30),
			res.CoreBusy[c]*100, res.CoreSoftirq[c]*100, res.CoreTask[c]*100)
	}
}
