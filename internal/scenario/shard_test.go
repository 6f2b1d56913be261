package scenario

import (
	"path/filepath"
	"testing"

	"falcon/internal/sim"
)

// TestCorpusShardInvariance replays the whole scenario corpus on a
// 2-shard PDES cluster and requires the measured window and the
// drain-complete accounting to match the serial run exactly — every
// counter, percentile, per-flow vector and audit verdict. Together with
// the corpus' own oracle battery this pins the sharded engine to the
// serial semantics across every datapath shape the fuzzer has found
// worth remembering.
//
// The fields excluded are RunResult.Fired and Inlined: a cross-shard
// frame runs two slots (the sender-side serializer retire plus the
// posted delivery on the receiving shard) where the serial engine runs
// one. Raw step counts legitimately differ; everything observable about
// the simulated system must not.
func TestCorpusShardInvariance(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			sc, _, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, falcon := range applicableModes(sc) {
				serial, sharded := sc, sc
				sharded.Shards = 2

				mWant := Measure(serial, falcon)
				mGot := Measure(sharded, falcon)
				mWant.Fired, mGot.Fired = 0, 0
				mWant.Inlined, mGot.Inlined = 0, 0
				if want, got := mWant.Fingerprint(), mGot.Fingerprint(); got != want {
					t.Errorf("falcon=%t: sharded Measure diverges\nserial:  %s\nsharded: %s", falcon, want, got)
				}

				aWant := Account(serial, falcon)
				aGot := Account(sharded, falcon)
				if want, got := accountFingerprint(aWant), accountFingerprint(aGot); got != want {
					t.Errorf("falcon=%t: sharded Account diverges\nserial:  %s\nsharded: %s", falcon, want, got)
				}
			}
		})
	}
}

// TestCorpusAdaptiveShardInvariance replays two fuzz-corpus scenarios
// — the dense steady-datapath flood and the hardest reconfig shape
// (graceful drain with twin handoff) — serially and on a 2-shard
// cluster, whose windows are cut by the safe horizon, and requires the
// cluster to execute exactly the serial run's events (fired plus
// inlined) plus one posted delivery per cross-shard message: windows
// may only place barriers, never add, drop or repeat an event. Traffic
// stops at the window end and both runs go on for a drain tail, so no
// cross-shard message is still in flight when they are compared.
func TestCorpusAdaptiveShardInvariance(t *testing.T) {
	for _, name := range []string{"det-udp-flood.json", "reconfig-drain.json"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, _, err := LoadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			run := func(sc Scenario, falcon bool) (executed uint64, e sim.Sim) {
				b := build(sc, falcon, false)
				b.tb.Run(sc.Warmup() + sc.Window() + 20*sim.Millisecond)
				return b.tb.E.Fired() + b.tb.E.Inlined(), b.tb.E
			}
			for _, falcon := range applicableModes(sc) {
				sharded := sc
				sharded.Shards = 2
				want, _ := run(sc, falcon)
				got, e := run(sharded, falcon)
				cl, ok := e.(*sim.Cluster)
				if !ok {
					t.Fatalf("falcon=%t: Shards=2 did not build a cluster", falcon)
				}
				msgs := cl.Stats().Msgs
				if msgs == 0 {
					t.Fatalf("falcon=%t: no cross-shard messages; comparison would be vacuous", falcon)
				}
				if got != want+msgs {
					t.Errorf("falcon=%t: sharded run executed %d events, want serial %d + %d cross-shard deliveries",
						falcon, got, want, msgs)
				}
			}
		})
	}
}

// accountFingerprint renders an AccountResult for byte comparison.
func accountFingerprint(a AccountResult) string {
	out := ""
	out += "sent=" + itoa(a.Sent) + " wire=" + itoa(a.Wire) + " delivered=" + itoa(a.Delivered)
	out += " " + a.Drops.String() + " sock=" + itoa(a.SocketDrops)
	out += " order=" + itoa(a.OrderViols)
	out += " flows=["
	for i := range a.PerFlowSent {
		out += itoa(a.PerFlowSent[i]) + ":" + itoa(a.PerFlowDelivered[i]) + " "
	}
	out += "]"
	out += " violations=["
	for _, v := range a.Violations {
		out += v + "; "
	}
	out += "]"
	return out
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
