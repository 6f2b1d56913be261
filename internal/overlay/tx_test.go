package overlay

import (
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// TestTxCharges pins the CPU work of one send of each kind: which
// functions the transmit path charges, once each, at what cost, and that
// all of it lands on the sending core in task context. The sender's
// machine does nothing else, so its ledger holds exactly the send.
func TestTxCharges(t *testing.T) {
	const payload, core = 1400, 3
	frame := proto.EthLen + proto.IPv4Len + proto.UDPLen + payload
	for _, tc := range []struct {
		name  string
		ctr   bool
		bytes map[costmodel.Func]int // charged function → bytes it is costed at
	}{
		{"container", true, map[costmodel.Func]int{
			costmodel.FnTxStack:   payload,
			costmodel.FnVethXmit:  0,
			costmodel.FnBridge:    0,
			costmodel.FnVXLANXmit: frame,
			costmodel.FnTxNIC:     0,
		}},
		{"host-network", false, map[costmodel.Func]int{
			costmodel.FnTxStack: payload,
			costmodel.FnTxNIC:   0,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBed(t, "", 100*devices.Gbps)
			p := SendParams{SrcPort: 7000, DstIP: serverIP, DstPort: 5001, Payload: payload, Core: core}
			if tc.ctr {
				p.From, p.DstIP = b.cliCtr, srvCtrIP
			}
			ok := false
			p.Done = func(sent bool) { ok = sent }
			b.client.SendUDP(p)
			b.e.RunUntil(sim.Millisecond)
			if !ok {
				t.Fatal("send did not reach the wire")
			}
			m := b.client.M
			var total int64
			for fn := costmodel.Func(0); fn < costmodel.NumFuncs; fn++ {
				bytes, charged := tc.bytes[fn]
				var calls uint64
				var ns int64
				if charged {
					calls, ns = 1, int64(m.Model.Cost(fn, bytes))
				}
				if got := m.Acct.Calls(fn); got != calls {
					t.Errorf("%v: %d calls, want %d", fn, got, calls)
				}
				if got := m.Acct.CoreTime(core, fn); got != ns {
					t.Errorf("%v: %d ns on core %d, want %d", fn, got, core, ns)
				}
				total += ns
			}
			if got := m.Acct.Busy(core, stats.CtxTask); got != total {
				t.Errorf("core %d busy %d ns in task context, want all %d ns of the send", core, got, total)
			}
		})
	}
}
