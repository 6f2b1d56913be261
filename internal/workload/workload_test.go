package workload

import (
	"testing"

	falconcore "falcon/internal/core"
	"falcon/internal/costmodel"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/sim"
	"falcon/internal/socket"
)

func stdBed(t *testing.T, containers int) *Testbed {
	t.Helper()
	return NewTestbed(TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: containers,
		GRO: true, InnerGRO: true,
	})
}

func TestTestbedConstruction(t *testing.T) {
	tb := stdBed(t, 2)
	if len(tb.ClientCtrs) != 2 || len(tb.ServerCtrs) != 2 {
		t.Fatal("containers not created")
	}
	if tb.Client.LinkTo(ServerIP) == nil || tb.Server.LinkTo(ClientIP) == nil {
		t.Fatal("link not wired")
	}
	if tb.Net.KV.Len() != 4 {
		t.Fatalf("kv entries = %d, want 4", tb.Net.KV.Len())
	}
}

func TestModeString(t *testing.T) {
	if ModeHost.String() != "Host" || ModeCon.String() != "Con" || ModeFalcon.String() != "Falcon" {
		t.Fatal("mode names wrong")
	}
}

func TestFixedRateFlowDelivers(t *testing.T) {
	tb := stdBed(t, 1)
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 6, 1)
	f.SendAtRate(50_000, 20*sim.Millisecond)
	tb.Run(25 * sim.Millisecond)
	sent := f.Sent()
	if sent < 800 || sent > 1200 {
		t.Fatalf("sent %d packets at 50kpps over 20ms, want ~1000", sent)
	}
	if f.Sock.Delivered.Value() != sent {
		t.Fatalf("delivered %d of %d (underloaded: no drops expected)",
			f.Sock.Delivered.Value(), sent)
	}
	if f.Sock.OrderViols != 0 {
		t.Fatal("order violated")
	}
}

func TestFloodIsSenderBound(t *testing.T) {
	tb := stdBed(t, 1)
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 6, 1)
	f.Flood(10 * sim.Millisecond)
	tb.Run(15 * sim.Millisecond)
	if f.Sent() < 1000 {
		t.Fatalf("flood sent only %d packets", f.Sent())
	}
	// Flood from one client must keep the sender core busy.
	if u := tb.Client.M.Acct.Utilization(2); u < 0.5 {
		t.Fatalf("sender core utilization %.2f, want high", u)
	}
}

func TestStressFloodOverloadsServer(t *testing.T) {
	tb := stdBed(t, 1)
	sock, flows := tb.StressFlood(true, 3, 64, 6, 50*sim.Millisecond)
	if len(flows) != 3 {
		t.Fatalf("flows = %d", len(flows))
	}
	res := MeasureWindow(tb, []*socket.Socket{sock}, 10*sim.Millisecond, 30*sim.Millisecond)
	if res.Delivered == 0 {
		t.Fatal("stress delivered nothing")
	}
	// Three flooding clients must overload the serialized overlay path:
	// drops appear somewhere in the receive path.
	if res.NICDrops+res.BacklogDrops+res.SocketDrops == 0 {
		t.Fatal("no drops under 3-client flood (server not saturated)")
	}
	// The RPS core (1) should be pinned at ~100% softirq.
	if res.CoreBusy[1] < 0.9 {
		t.Fatalf("RPS core busy %.2f, want ~1 (serialized softirqs)", res.CoreBusy[1])
	}
}

func TestMeasureWindow(t *testing.T) {
	tb := stdBed(t, 1)
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 6, 1)
	f.SendAtRate(100_000, 60*sim.Millisecond)
	res := MeasureWindow(tb, []*socket.Socket{f.Sock}, 10*sim.Millisecond, 40*sim.Millisecond)
	if res.PPS < 80_000 || res.PPS > 120_000 {
		t.Fatalf("measured %.0f pps, want ~100k", res.PPS)
	}
	if res.Latency.Count == 0 || res.Latency.P99 <= 0 {
		t.Fatal("latency summary empty")
	}
	if res.SystemUtilization() <= 0 {
		t.Fatal("no utilization measured")
	}
	if res.NetRX == 0 {
		t.Fatal("no NET_RX counted in window")
	}
}

func TestStopHaltsFlow(t *testing.T) {
	tb := stdBed(t, 1)
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 6, 1)
	f.SendAtRate(100_000, sim.Second)
	tb.Run(5 * sim.Millisecond)
	f.Stop()
	sent := f.Sent()
	tb.Run(20 * sim.Millisecond)
	if f.Sent() != sent {
		t.Fatal("sender continued after Stop")
	}
}

// TestSendAtRateEnds: Stop and SetRate(0) each end a SendAtRate sender.
// It sends nothing after the call, and once its pending tick has run,
// its slot stays unset: the bed keeps only the events an idle bed does.
func TestSendAtRateEnds(t *testing.T) {
	idle := stdBed(t, 1)
	idle.Run(30 * sim.Millisecond)
	for _, tc := range []struct {
		name string
		end  func(f *UDPFlow)
	}{
		{"Stop", (*UDPFlow).Stop},
		{"SetRate(0)", func(f *UDPFlow) { f.SetRate(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := stdBed(t, 1)
			f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 6, 1)
			f.SendAtRate(100_000, sim.Second)
			tb.Run(5 * sim.Millisecond)
			tc.end(f)
			sent := f.Sent()
			if sent == 0 {
				t.Fatal("sender sent nothing before the call")
			}
			tb.Run(30 * sim.Millisecond)
			if f.Sent() != sent {
				t.Fatalf("sent %d packets after the call", f.Sent()-sent)
			}
			if got, want := tb.E.Pending(), idle.E.Pending(); got != want {
				t.Fatalf("%d events pending, an idle bed keeps %d: the sender's slot is still set", got, want)
			}
		})
	}
}

// TestCloneStartsFreshSender: a clone of a stopped flow is a new sender.
// It starts sending under SendAtRate, numbers its packets from 1, and
// does not restart the original.
func TestCloneStartsFreshSender(t *testing.T) {
	tb := stdBed(t, 1)
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 6, 1)
	f.SendAtRate(100_000, sim.Second)
	tb.Run(5 * sim.Millisecond)
	f.Stop()
	sent := f.Sent()
	c := f.Clone(3, 2)
	if c.Sent() != 0 {
		t.Fatalf("clone starts at %d sent packets, want 0", c.Sent())
	}
	c.SendAtRate(100_000, 30*sim.Millisecond)
	tb.Run(40 * sim.Millisecond)
	if c.Sent() < 1500 {
		t.Fatalf("clone of a stopped flow sent %d packets at 100 kpps over 25 ms", c.Sent())
	}
	if f.Sent() != sent {
		t.Fatalf("the stopped original sent %d more packets", f.Sent()-sent)
	}
	if got, want := f.Sock.Delivered.Value(), sent+c.Sent(); got != want || f.Sock.OrderViols != 0 {
		t.Fatalf("delivered %d (order violations %d), want %d in order", got, f.Sock.OrderViols, want)
	}
}

func TestFalconTestbedEndToEnd(t *testing.T) {
	tb := stdBed(t, 1)
	tb.EnableFalconOnServer(falconcore.DefaultConfig([]int{3, 4, 5}))
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 6, 1)
	f.SendAtRate(100_000, 30*sim.Millisecond)
	tb.Run(40 * sim.Millisecond)
	if f.Sock.Delivered.Value() == 0 || f.Sock.OrderViols != 0 {
		t.Fatalf("falcon testbed broken: delivered=%d viols=%d",
			f.Sock.Delivered.Value(), f.Sock.OrderViols)
	}
}

func TestContainerIPDistinct(t *testing.T) {
	seen := map[string]bool{}
	for side := 0; side < 2; side++ {
		for i := 1; i <= 40; i++ {
			ip := ContainerIP(side, i).String()
			if seen[ip] {
				t.Fatalf("duplicate container IP %s", ip)
			}
			seen[ip] = true
		}
	}
}

func TestMTUModeFragmentsAndReassembles(t *testing.T) {
	tb := NewTestbed(TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
		GRO: true, InnerGRO: true, MTU: 1500,
	})
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 9000, 2, 6, 1)
	f.SendAtRate(5_000, 20*sim.Millisecond)
	tb.Run(30 * sim.Millisecond)
	sent := f.Sent()
	if sent == 0 || f.Sock.Delivered.Value() != sent {
		t.Fatalf("delivered %d of %d datagrams over MTU 1500",
			f.Sock.Delivered.Value(), sent)
	}
	// The wire must have carried >1 frame per datagram.
	if tb.Client.LinkTo(ServerIP).Sent.Value() <= sent {
		t.Fatal("no fragmentation happened on the wire")
	}
	if tb.Server.Rx.Reasm == nil || tb.Server.Rx.Reasm.Reassembled == 0 {
		t.Fatal("reassembler idle")
	}
	if f.Sock.OrderViols != 0 {
		t.Fatal("order violated in MTU mode")
	}
}

func TestMTUModeSmallPacketsUntouched(t *testing.T) {
	tb := NewTestbed(TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
		GRO: true, InnerGRO: true, MTU: 1500,
	})
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 512, 2, 6, 1)
	f.SendAtRate(10_000, 10*sim.Millisecond)
	tb.Run(20 * sim.Millisecond)
	if f.Sock.Delivered.Value() != f.Sent() {
		t.Fatal("small packets lost in MTU mode")
	}
	if tb.Client.LinkTo(ServerIP).Sent.Value() != f.Sent() {
		t.Fatal("small packets fragmented unnecessarily")
	}
}

// TestLedgerFunctionsSumToContexts: every slice is charged once to the
// CPU ledger, so on every core of an overlay Falcon bed the time summed
// over functions equals the time summed over contexts, over the whole
// run and over a measurement window after a reset.
func TestLedgerFunctionsSumToContexts(t *testing.T) {
	tb := stdBed(t, 1)
	tb.EnableFalconOnServer(falconcore.DefaultConfig([]int{3, 4, 5}))
	tb.StressFlood(true, 3, 64, 6, 30*sim.Millisecond)
	check := func(when string) {
		t.Helper()
		for _, h := range []*overlay.Host{tb.Client, tb.Server} {
			acct := h.M.Acct
			busy := int64(0)
			for c := 0; c < h.M.NumCores(); c++ {
				var fns int64
				for fn := costmodel.Func(0); fn < costmodel.NumFuncs; fn++ {
					fns += acct.CoreTime(c, fn)
				}
				if fns != acct.TotalBusy(c) {
					t.Fatalf("%s, %s core %d: functions sum to %d ns, contexts to %d", when, h.Name, c, fns, acct.TotalBusy(c))
				}
				busy += fns
			}
			if busy == 0 {
				t.Fatalf("%s, %s: no CPU time charged", when, h.Name)
			}
		}
	}
	tb.Run(10 * sim.Millisecond)
	check("whole run")
	tb.Client.M.ResetMeasurement()
	tb.Server.M.ResetMeasurement()
	tb.Run(20 * sim.Millisecond)
	check("after a reset")
}
