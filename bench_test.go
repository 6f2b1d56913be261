// Benchmarks: one per paper table/figure (each iteration regenerates the
// experiment end to end in the simulator; run `go test -bench=Fig -benchtime=1x`
// for a single full sweep), plus micro-benchmarks of the hot substrate
// primitives (hashing, GRO, encapsulation, event dispatch).
package falcon_test

import (
	"fmt"
	"testing"

	falcon "falcon"
	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/devices"
	"falcon/internal/gro"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

func benchExperiment(b *testing.B, id string) {
	benchExperimentOpt(b, id, falcon.ExperimentOptions{Quick: true})
}

func benchExperimentOpt(b *testing.B, id string, opt falcon.ExperimentOptions) {
	b.Helper()
	e, ok := falcon.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(opt)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no results", id)
		}
	}
}

// Paper figures (Section 2.2 motivation and Section 6 evaluation).

func BenchmarkFig2a(b *testing.B) { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B) { benchExperiment(b, "fig2b") }
func BenchmarkFig2c(b *testing.B) { benchExperiment(b, "fig2c") }
func BenchmarkFig2d(b *testing.B) { benchExperiment(b, "fig2d") }
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig9a(b *testing.B) { benchExperiment(b, "fig9a") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig10Audit is fig10 with full runtime verification on (SKB
// ledger, conservation sweeps, watchdog, trace ring) — run against
// BenchmarkFig10 to measure the audit subsystem's overhead. Audit-off
// cost is a nil-check per lifecycle hook and is covered by
// TestHotPathAllocs in internal/experiments.
func BenchmarkFig10Audit(b *testing.B) {
	benchExperimentOpt(b, "fig10", falcon.ExperimentOptions{Quick: true, Audit: true})
}
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B) { benchExperiment(b, "fig19") }

// Ablations (DESIGN.md §5).

func BenchmarkAblationGROSplit(b *testing.B) { benchExperiment(b, "abl-grosplit") }
func BenchmarkAblationLocality(b *testing.B) { benchExperiment(b, "abl-locality") }
func BenchmarkAblationStages(b *testing.B)   { benchExperiment(b, "abl-stages") }
func BenchmarkAblationDynSplit(b *testing.B) { benchExperiment(b, "abl-dynsplit") }
func BenchmarkBaselineSlim(b *testing.B)     { benchExperiment(b, "abl-slim") }
func BenchmarkExtensionMTU(b *testing.B)     { benchExperiment(b, "abl-mtu") }
func BenchmarkAblationBalancer(b *testing.B) { benchExperiment(b, "abl-balancer") }
func BenchmarkAblationChaos(b *testing.B)    { benchExperiment(b, "abl-chaos") }

// Substrate micro-benchmarks.

func BenchmarkFlowHash(b *testing.B) {
	k := skb.FlowKey{
		SrcIP: proto.IP4(10, 0, 0, 1), DstIP: proto.IP4(10, 0, 0, 2),
		SrcPort: 12345, DstPort: 80, Proto: proto.ProtoTCP,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.Hash()
	}
}

func BenchmarkDeviceFlowHash(b *testing.B) {
	h := uint32(0xdeadbeef)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = skb.DeviceFlowHash(h, i&7)
	}
}

// encapSKB is vxlan_xmit's in-place encapsulation, as the transmit path
// runs it: inner headers (followed by payLen payload bytes) in an SKB
// with headroom, skb_push, then the outer headers.
func encapSKB(inner []byte, payLen int, ipID uint16) *skb.SKB {
	s := skb.NewTx(len(inner), payLen, proto.OverlayOverhead)
	copy(s.Data, inner)
	s.Push(proto.OverlayOverhead)
	proto.PutEncapHeaders(s.Data, proto.MACFromUint64(3), proto.MACFromUint64(4),
		proto.IP4(192, 168, 1, 1), proto.IP4(192, 168, 1, 2), 49152, 42, ipID, len(inner)+payLen)
	return s
}

func BenchmarkEncapsulate(b *testing.B) {
	inner := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(10, 32, 0, 1), proto.IP4(10, 32, 0, 2), 7000, 5001, 1, 1400)
	b.SetBytes(int64(len(inner) + 1400))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encapSKB(inner, 1400, uint16(i)).Free()
	}
}

func BenchmarkDecapsulate(b *testing.B) {
	inner := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(10, 32, 0, 1), proto.IP4(10, 32, 0, 2), 7000, 5001, 1, 1400)
	s := encapSKB(inner, 1400, 7)
	outer := s.Data
	b.SetBytes(int64(s.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SetData(outer, 1400)
		if !s.DecapVXLAN() {
			b.Fatal("decap failed")
		}
	}
}

func BenchmarkGROPushFlush(b *testing.B) {
	seg := func(seq uint32) []byte {
		return proto.BuildTCPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
			proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2),
			proto.TCPHdr{SrcPort: 5000, DstPort: 80, Seq: seq, Flags: proto.TCPAck, Window: 65535},
			0, 1400)
	}
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = seg(uint32(i * 1400))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := gro.New()
		for _, fr := range frames {
			buf := make([]byte, len(fr))
			copy(buf, fr)
			e.Push(skb.New(buf, 1400))
		}
		if out := e.Flush(); len(out) != 1 {
			b.Fatalf("flush = %d", len(out))
		}
	}
}

func BenchmarkEventDispatch(b *testing.B) {
	e := sim.New(1)
	b.ReportAllocs()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(100, tick)
		}
	}
	e.After(100, tick)
	e.Run()
	if n < b.N {
		b.Fatal("event loop stalled")
	}
}

// BenchmarkPendingTimers: k engine timers pending at once, each
// rescheduling itself a pseudo-random gap of up to 1 µs ahead, so every
// dispatch finds about k events queued. Each tick also re-arms one
// retransmit-style timer 1 ms ahead, a slot cleared and set again as
// TCP's is per segment; it never fires. k = 8 is about the 3–9 events the
// benchmark workloads keep pending, and k = 256 shows what a deeper queue
// costs. An op is one tick.
// BenchmarkEventDispatch keeps one event pending and cannot show what
// the queue's depth costs.
func BenchmarkPendingTimers(b *testing.B) {
	for _, k := range []int{8, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			e := sim.New(1)
			rng := sim.NewRand(1)
			rto := e.NewSlots(1, func(int) { b.Fatal("retransmit timer fired") })
			n := 0
			var tick func()
			tick = func() {
				if n++; n >= b.N {
					e.Stop()
					return
				}
				e.After(sim.Time(1+rng.Intn(1000)), tick)
				rto.Clear(0)
				rto.Set(0, e.Now()+sim.Millisecond)
			}
			for i := 0; i < k; i++ {
				e.After(sim.Time(1+rng.Intn(1000)), tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
			if n != b.N {
				b.Fatalf("%d ticks ran, want %d", n, b.N)
			}
		})
	}
}

// BenchmarkMachineSlices: k busy cores each run a chain of fixed-cost
// slices, started k-th of a slice apart so their completions interleave,
// as Falcon's pipelined softirq stages do. The cores=k cases put all k
// on one machine; machines=2 puts one on each of two machines sharing
// the engine, as a client and a server are. An op is one slice;
// fired/slice counts the heap events it took.
func BenchmarkMachineSlices(b *testing.B) {
	const cost = 120
	for _, bc := range []struct {
		name        string
		machines, k int
	}{
		{"cores=1", 1, 1},
		{"cores=3", 1, 3},
		{"cores=6", 1, 6},
		{"machines=2", 2, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := sim.New(1)
			ms := make([]*cpu.Machine, bc.machines)
			for i := range ms {
				ms[i] = cpu.NewMachine(e, costmodel.Kernel419(), 8)
			}
			n := 0
			for i := 0; i < bc.k; i++ {
				c := ms[i%bc.machines].Core(i / bc.machines)
				var next func()
				next = func() {
					if n++; n < b.N {
						c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, cost, next)
					}
				}
				e.At(sim.Time(i*cost/bc.k), func() { c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, cost, next) })
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slice")
			b.ReportMetric(float64(e.Fired())/float64(b.N), "fired/slice")
		})
	}
}

// BenchmarkTimerSlices: a generator's tick that submits a CPU slice and
// paces the next tick a gap longer than the slice ahead, either with an
// engine timer (timer) or through one slot of the engine group (slot),
// as the traffic generators do. An op is one tick; fired/tick counts the
// heap events the tick and its slice took. With a timer, each tick is one
// fired heap event and its slice runs from the slot group after it; with
// a slot, nothing fires.
func BenchmarkTimerSlices(b *testing.B) {
	const cost, gap = 120, 1000
	for _, slot := range []bool{false, true} {
		name := "timer"
		if slot {
			name = "slot"
		}
		b.Run(name, func(b *testing.B) {
			e := sim.New(1)
			c := cpu.NewMachine(e, costmodel.Kernel419(), 8).Core(0)
			n := 0
			var tick, pace func()
			tick = func() {
				c.Submit(stats.CtxSoftIRQ, costmodel.FnBridge, cost, nil)
				if n++; n < b.N {
					pace()
				}
			}
			if slot {
				s := e.NewSlots(1, func(int) { tick() })
				pace = func() { s.Set(0, e.Now()+gap) }
			} else {
				pace = func() { e.After(gap, tick) }
			}
			b.ReportAllocs()
			b.ResetTimer()
			pace()
			e.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
			b.ReportMetric(float64(e.Fired())/float64(b.N), "fired/tick")
			if n != b.N {
				b.Fatalf("%d ticks ran, want %d", n, b.N)
			}
		})
	}
}

// BenchmarkLinkArrivals: back-to-back 64 B frames on one 100G link into
// a sink that sends the next frame as each one arrives, so a window of
// frames keeps the serializer busy. An op is one frame; fired/frame
// counts the heap events its arrival took.
func BenchmarkLinkArrivals(b *testing.B) {
	const window = 64 // frames on the wire: more than the 100 ns delay holds
	e := sim.New(1)
	l := devices.NewLink(e, 100*devices.Gbps, 100)
	sent := 0
	send := func() {
		sent++
		if !l.Send(skb.NewTx(64, 0, 0)) {
			b.Fatal("link queue full")
		}
	}
	l.Deliver = func(s *skb.SKB) {
		s.Free()
		if sent < b.N {
			send()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for sent < min(window, b.N) {
		send()
	}
	e.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(e.Fired())/float64(b.N), "fired/frame")
	if got := l.Sent.Value(); got != uint64(b.N) {
		b.Fatalf("sent %d frames, want %d", got, b.N)
	}
}

func BenchmarkOverlayPacketEndToEnd(b *testing.B) {
	// Cost of simulating one full overlay packet (tx → wire → 3-softirq
	// rx → socket), amortized: drive b.N packets through a testbed.
	tb := falcon.NewTestbed(falcon.TestbedConfig{
		LinkRate: 100 * falcon.Gbps, Cores: 8, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1}, GRO: true, InnerGRO: true,
	})
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	f.SendAtRate(100_000, falcon.Time(b.N)*10*falcon.Microsecond+falcon.Millisecond)
	tb.Run(falcon.Time(b.N)*10*falcon.Microsecond + 10*falcon.Millisecond)
	b.StopTimer()
	if f.Sock.Delivered.Value() == 0 {
		b.Fatal("nothing delivered")
	}
}
