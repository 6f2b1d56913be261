package scenario

import "testing"

// reconfigSeeds scans the fuzz seed space for generated scenarios that
// carry reconfig actions, returning up to want of them (drain-bearing
// ones first so the hardest shape is always represented).
func reconfigSeeds(t *testing.T, want int) []Scenario {
	t.Helper()
	var drains, others []Scenario
	for seed := uint64(1); seed <= 200; seed++ {
		sc := Generate(seed)
		if len(sc.Reconfigs) == 0 {
			continue
		}
		if sc.HasDrain() {
			drains = append(drains, sc)
		} else {
			others = append(others, sc)
		}
	}
	if len(drains) == 0 {
		t.Fatal("no fuzz seed in [1,200] generates a drain — generator regression")
	}
	out := append(drains, others...)
	if len(out) > want {
		out = out[:want]
	}
	return out
}

// TestGenerateReconfigs pins the generator's reconfig behavior: the
// distribution actually emits reconfig scenarios (including drains),
// every one validates, and drains only appear where the validator
// allows them.
func TestGenerateReconfigs(t *testing.T) {
	n := 0
	for seed := uint64(1); seed <= 200; seed++ {
		sc := Generate(seed)
		if len(sc.Reconfigs) == 0 {
			continue
		}
		n++
		if err := sc.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if sc.HasDrain() && (!sc.UDPOnly() || !sc.OverlayOnly()) {
			t.Errorf("seed %d: drain generated for a non-migratable workload", seed)
		}
	}
	if n < 10 {
		t.Fatalf("only %d/200 seeds carry reconfigs — distribution regression", n)
	}
}

// TestReconfigSeedsCheckClean runs generated reconfig scenarios through
// the full applicable oracle battery — in particular the conservation
// oracle: no packet may go unaccounted across any generation swap, in
// either mode.
func TestReconfigSeedsCheckClean(t *testing.T) {
	for _, sc := range reconfigSeeds(t, 4) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			vs, err := Check(sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				t.Errorf("%s", v)
			}
		})
	}
}

// TestReconfigScenarioShardInvariance runs generated reconfig scenarios
// — generation swaps, graceful drains, twin handoffs and all — on a
// 2-shard PDES cluster and requires byte-identical measurement and
// accounting against the serial engine (Fired and Inlined excluded, as
// in the corpus invariance test: raw event counts depend on sharding).
func TestReconfigScenarioShardInvariance(t *testing.T) {
	for _, sc := range reconfigSeeds(t, 3) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
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
