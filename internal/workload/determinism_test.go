package workload

import (
	"reflect"
	"testing"

	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/sim"
	"falcon/internal/socket"
)

// runStress runs a seeded Falcon stress test and returns a fingerprint
// of everything measurable.
func runStress(seed uint64) []uint64 {
	tb := NewTestbed(TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1},
		GRO: true, InnerGRO: true, Seed: seed,
	})
	tb.EnableFalconOnServer(falconcore.DefaultConfig([]int{3, 4, 5}))
	sock, _ := tb.StressFlood(true, 3, 64, 2, 40*sim.Millisecond)
	res := MeasureWindow(tb, []*socket.Socket{sock}, 10*sim.Millisecond, 25*sim.Millisecond)
	first, second, gated := tb.Server.Falcon.Stats()
	return []uint64{
		res.Delivered,
		uint64(res.Latency.P99),
		uint64(res.Latency.Max),
		res.NICDrops, res.BacklogDrops, res.SocketDrops,
		res.HardIRQs, res.NetRX, res.RES,
		first, second, gated,
		tb.E.Fired(),
	}
}

func TestEndToEndDeterminism(t *testing.T) {
	// The entire simulation — CPU scheduling, hashing, drops, Falcon
	// placements, even the total event count — must be bit-identical
	// across runs with the same seed.
	a := runStress(42)
	b := runStress(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism violated at field %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := runStress(42)
	c := runStress(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fingerprints")
	}
}

func TestConservationOfPackets(t *testing.T) {
	// Every packet sent is accounted for: delivered, dropped at a socket,
	// or counted in the drop census, once the senders stop and the
	// network drains.
	tb := NewTestbed(TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1}, GRO: true, InnerGRO: true,
	})
	sock, flows := tb.StressFlood(true, 3, 64, 2, 30*sim.Millisecond)
	tb.Run(60 * sim.Millisecond) // drain fully after senders stop

	var sent uint64
	for _, f := range flows {
		sent += f.Sent()
	}
	wire := tb.Client.LinkTo(ServerIP).Sent.Value()
	if wire > sent {
		t.Fatalf("wire %d > sent %d", wire, sent)
	}
	delivered, sockDrops, drops := sock.Delivered.Value(), sock.SocketDrops.Value(), tb.Net.Drops()
	if r := overlay.Unaccounted(sent, delivered, sockDrops, 0, drops); r != 0 {
		t.Fatalf("conservation violated: %d unaccounted (sent=%d delivered=%d sock=%d census %v)",
			r, sent, delivered, sockDrops, drops)
	}
}

// TestMeasurementResetDoesNotSteerFalcon: a measurement reset only moves
// the start of the measured window. A load-gated two-choice Falcon bed
// run to the same end with and without one makes the same placements
// and fires the same events.
func TestMeasurementResetDoesNotSteerFalcon(t *testing.T) {
	run := func(reset bool) []uint64 {
		tb := NewTestbed(TestbedConfig{
			LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
			RSSCores: []int{0}, RPSCores: []int{1},
			GRO: true, InnerGRO: true, Seed: 7,
		})
		tb.EnableFalconOnServer(falconcore.DefaultConfig([]int{3, 4, 5}))
		tb.StressFlood(true, 3, 64, 2, 20*sim.Millisecond)
		// Both runs stop at the reset time, since a stop alone can turn
		// an inline slice into a fired event.
		tb.Run(5*sim.Millisecond + 500*sim.Microsecond)
		if reset {
			tb.Client.M.ResetMeasurement()
			tb.Server.M.ResetMeasurement()
		}
		tb.Run(15 * sim.Millisecond)
		first, second, gated := tb.Server.Falcon.Stats()
		return []uint64{first, second, gated, tb.E.Fired()}
	}
	plain, reset := run(false), run(true)
	if !reflect.DeepEqual(plain, reset) {
		t.Fatalf("first/second/gated/fired = %v with a reset, %v without", reset, plain)
	}
}
