package workload

import (
	"fmt"
	"strings"
	"testing"

	"falcon/internal/audit"
	"falcon/internal/devices"
	"falcon/internal/faults"
	"falcon/internal/overlay"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/socket"
)

// runJittery runs the two-host testbed with fault-injected link jitter
// and loss on both directions of the inter-host wire, and returns a
// fingerprint of everything measurable. With shards=2 the client and
// server live on different PDES shards and every frame crosses the
// shard boundary through a PostSource whose horizon guard panics if a
// frame ever arrives earlier than now+Lookahead() — so this doubles as
// the runtime proof that devices.Link.Lookahead is never overestimated:
// jitter only adds delay and a busy serializer only pushes arrivals
// later, and the guard re-checks that bound on every single frame.
// With withAudit it also returns what the auditor saw.
func runJittery(t *testing.T, shards int, withAudit bool) ([]uint64, *auditSeen) {
	t.Helper()
	tb := NewTestbed(TestbedConfig{
		LinkRate: 10 * devices.Gbps, Cores: 8, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1},
		GRO: true, InnerGRO: true, Seed: 7, Shards: shards,
	})
	var a *audit.Auditor
	var seen *auditSeen
	if withAudit {
		a = tb.EnableAudit(audit.Config{OnViolation: func(v *audit.Violation) {
			t.Errorf("audit violation: %v", v)
		}})
		seen = &auditSeen{stamps: make(map[string]int)}
		for _, h := range tb.Hosts() {
			h.Audit = &stampRecorder{Auditor: h.Audit, e: h.E, stamps: seen.stamps}
		}
	}
	in := faults.NewInjector(tb.E)
	link := tb.Client.LinkTo(ServerIP)
	back := tb.Server.LinkTo(ClientIP)
	in.Install(faults.Plan{Name: "jitter+loss", Items: []faults.Item{
		{At: 2 * sim.Millisecond, For: 6 * sim.Millisecond,
			Fault: &faults.LinkJitterBurst{Link: link, Jitter: 30 * sim.Microsecond}},
		{At: 3 * sim.Millisecond, For: 4 * sim.Millisecond,
			Fault: &faults.LinkLossBurst{Link: link, Rate: 0.02}},
		{At: 4 * sim.Millisecond, For: 3 * sim.Millisecond,
			Fault: &faults.LinkJitterBurst{Link: back, Jitter: 10 * sim.Microsecond}},
	}})
	until := 12 * sim.Millisecond
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 256, 2, 2, 1)
	f.SendAtRate(200_000, until)
	res := MeasureWindow(tb, []*socket.Socket{f.Sock}, 2*sim.Millisecond, 9*sim.Millisecond)
	if withAudit {
		deadline := until
		tb.Run(deadline)
		for i := 0; i < 10 && a.LiveCount() > 0; i++ {
			deadline += 2 * sim.Millisecond
			tb.Run(deadline)
		}
		for _, v := range a.Final() {
			t.Errorf("teardown violation: %v", v)
		}
		seen.totals = []uint64{a.Created(), a.CreatedAt(overlay.TxSite)(),
			a.Disposed("delivered")(), a.Disposed("gro-absorbed")()}
		for b := overlay.DropBucket(0); b < overlay.NumDropBuckets; b++ {
			for _, r := range b.Reasons() {
				seen.totals = append(seen.totals, a.Disposed(r.String())())
			}
		}
		var state strings.Builder
		a.WriteState(&state)
		seen.state = state.String()
	}
	return []uint64{
		res.Delivered, uint64(res.Latency.P50), uint64(res.Latency.P99),
		uint64(res.Latency.Max), res.NICDrops, res.BacklogDrops,
		res.SocketDrops, link.Sent.Value(), link.Lost.Value(),
		link.Dropped.Value(), f.Sent(),
	}, seen
}

// auditSeen is what an audited runJittery observed: every stage and
// free stamp with the clock of the host that took it, the ledger's
// totals after the drain, and the auditor's dump.
type auditSeen struct {
	stamps map[string]int
	totals []uint64
	state  string
}

// stampRecorder wraps one host's audit tap: it forwards every hook and
// counts each stage and free stamp under the host engine's clock.
type stampRecorder struct {
	skb.Auditor
	e      *sim.Engine
	stamps map[string]int
}

func (r *stampRecorder) SKBStage(s *skb.SKB, stage string) {
	r.stamps[fmt.Sprintf("%s@%d", stage, r.e.Now())]++
	r.Auditor.SKBStage(s, stage)
}

func (r *stampRecorder) SKBFree(s *skb.SKB) {
	r.stamps[fmt.Sprintf("free@%d", r.e.Now())]++
	r.Auditor.SKBFree(s)
}

// TestShardInvarianceUnderLinkFaults: the sharded testbed must survive
// fault-injected jitter and loss on the cross-shard wire without ever
// tripping the lookahead horizon guard, and must reproduce the serial
// run's results exactly.
func TestShardInvarianceUnderLinkFaults(t *testing.T) {
	want, _ := runJittery(t, 0, false)
	for _, shards := range []int{2, 4} {
		got, _ := runJittery(t, shards, false)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d field %d: %d != serial %d", shards, i, got[i], want[i])
			}
		}
	}
}

// TestShardAuditUnderLinkFaults: same workload with the audit harness
// attached — the one ledger written from both LPs, conservation
// balances and the end-of-run leak check must all stay clean, and
// results must still match the serial audited run. A frame that crosses
// to the other LP is re-pointed at the receiving host's tap on arrival,
// so every stamp carries the clock of the LP running that stage: the
// 2-LP run's stamps, per host clock, and ledger totals must be the
// serial run's, and its dump must hold exactly one trace ring.
func TestShardAuditUnderLinkFaults(t *testing.T) {
	want, serial := runJittery(t, 0, true)
	got, sharded := runJittery(t, 2, true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("audited shards=2 field %d: %d != serial %d", i, got[i], want[i])
		}
	}
	if len(serial.stamps) == 0 {
		t.Fatal("no stamps recorded")
	}
	for k, n := range serial.stamps {
		if sharded.stamps[k] != n {
			t.Errorf("stamp %s: %d on 2 LPs, %d serial", k, sharded.stamps[k], n)
		}
	}
	for k, n := range sharded.stamps {
		if _, ok := serial.stamps[k]; !ok {
			t.Errorf("stamp %s: %d on 2 LPs, none serial", k, n)
		}
	}
	for i := range serial.totals {
		if sharded.totals[i] != serial.totals[i] {
			t.Errorf("ledger total %d: %d on 2 LPs, %d serial", i, sharded.totals[i], serial.totals[i])
		}
	}
	if n := strings.Count(sharded.state, "trace ring ("); n != 1 {
		t.Errorf("2-LP dump holds %d trace rings, want 1:\n%s", n, sharded.state)
	}
}
