package workload

import (
	"strings"
	"testing"

	"falcon/internal/audit"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/socket"
)

// TestAuditPathDropsBalance sends overlay frames to a container MAC the
// server's bridge has no port for: every frame dies at the FDB lookup,
// and the path-drops balance must see Rx.PathDrops and the ledger's
// drop:fdb frees move together.
func TestAuditPathDropsBalance(t *testing.T) {
	tb := NewTestbed(TestbedConfig{
		LinkRate: 10 * devices.Gbps, Cores: 8, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1}, Seed: 3,
	})
	a := tb.EnableAudit(audit.Config{OnViolation: func(v *audit.Violation) {
		t.Errorf("audit violation: %v", v)
	}})
	ghost := proto.IP4(10, 32, 9, 9)
	tb.Net.KV.Put(ghost, overlay.EndpointInfo{
		ContainerMAC: proto.MACFromUint64(0x999), HostIP: tb.Server.IP, HostMAC: tb.Server.MAC,
	})
	// Balances prime at the auditor's first sweep, so the frames go out
	// after it.
	const n = 50
	start := 2 * sim.Millisecond
	for i := 0; i < n; i++ {
		seq := uint64(i + 1)
		tb.E.At(start+sim.Time(i)*20*sim.Microsecond, func() {
			tb.Client.SendUDP(overlay.SendParams{
				From: tb.ClientCtrs[0], SrcPort: 7000, DstIP: ghost, DstPort: 5001,
				Payload: 64, Core: 2, FlowID: 1, Seq: seq,
			})
		})
	}
	tb.Run(6 * sim.Millisecond)
	for _, v := range a.Final() {
		t.Errorf("teardown violation: %v", v)
	}
	if got := tb.Server.Rx.PathDrops.Value(); got != n {
		t.Fatalf("path drops = %d, want %d (every frame misses the FDB)", got, n)
	}
}

// TestAuditChecksTheWindowStart plants a backlog drop that no SKB free
// matches 1 µs after MeasureWindow's warm-up ends. No counter rewinds at
// the window start, so the sweep spanning it compares like any other and
// the backlog-drops balance must break.
func TestAuditChecksTheWindowStart(t *testing.T) {
	tb := NewTestbed(TestbedConfig{
		LinkRate: 10 * devices.Gbps, Cores: 8, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1}, Seed: 1,
	})
	var got []*audit.Violation
	tb.EnableAudit(audit.Config{OnViolation: func(v *audit.Violation) { got = append(got, v) }})
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 6, 1)
	f.SendAtRate(50_000, 20*sim.Millisecond)
	warmup := 5 * sim.Millisecond
	tb.E.At(warmup+sim.Microsecond, func() { tb.Server.St.Drops.Inc() })
	MeasureWindow(tb, []*socket.Socket{f.Sock}, warmup, 10*sim.Millisecond)
	for _, v := range got {
		if v.Kind == "conservation" && strings.Contains(v.Detail, `"backlog-drops"`) {
			return
		}
	}
	t.Fatalf("the uncounted drop at the window start went unreported; violations: %v", got)
}
