package experiments

import "testing"

// TestShardInvariance is the determinism contract of the PDES engine:
// every experiment prints its golden (captured on the serial engine)
// byte for byte on a conservative multi-shard cluster too, for every
// shard count. fig10 covers the steady UDP datapath (two hosts, two
// shards, one busy direction), abl-chaos covers fault injection with
// coordinator-side Apply/Revert events and RNG-heavy degraded paths,
// and mesh8 covers the 8-host topology where every shard both sends and
// receives cross-shard traffic — the case where per-link bounds feed
// the adaptive safe-horizon windows, so window placement is pinned to
// the serial semantics here. abl-tail covers the heavy-tailed open-loop
// generators: thousands of churning flows whose send schedule must be
// identical however the datapath is sharded.
func TestShardInvariance(t *testing.T) {
	for _, id := range []string{"fig10", "abl-chaos", "mesh8", "abl-tail"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want := golden(t, id)
			for _, shards := range []int{1, 2, 8} {
				opt := goldenOpt
				opt.Shards = shards
				if got := render(t, id, opt); got != want {
					t.Errorf("shards=%d output diverges from the serial golden\n--- golden ---\n%s\n--- shards=%d ---\n%s",
						shards, want, shards, got)
				}
			}
		})
	}
}

// TestAdaptiveHorizonInvariance pins the adaptive safe-horizon windows
// to the serial semantics: mesh8 — the topology where every shard both
// sends and receives and per-link bounds actually feed the adaptive
// derivation — prints its serial golden byte for byte on sharded
// clusters of 2 and 4 shards, whose windows are cut by the adaptive
// horizon. Window placement is a pure scheduling concern; it must never
// leak into a simulated result. (The static-bound reference the
// adaptive windows are compared against lives in internal/sim's own
// tests, e.g. TestClusterAdaptiveWindowsWider.)
func TestAdaptiveHorizonInvariance(t *testing.T) {
	want := golden(t, "mesh8")
	for _, shards := range []int{2, 4} {
		opt := goldenOpt
		opt.Shards = shards
		if got := render(t, "mesh8", opt); got != want {
			t.Errorf("shards=%d output diverges from the serial golden\n--- golden ---\n%s\n--- shards=%d ---\n%s",
				shards, want, shards, got)
		}
	}
}

// TestShardInvarianceWithAudit repeats the invariance check with the
// full audit harness attached: per-shard SKB ledgers, cross-shard
// record handoffs at barriers, and coordinator-driven invariant sweeps
// must not perturb a single simulated result either, serial or sharded.
// (mesh8 builds its topology directly on overlay.Network and has no
// audit harness, so the audited check covers the testbed-based goldens.)
func TestShardInvarianceWithAudit(t *testing.T) {
	for _, id := range []string{"fig10", "abl-chaos", "abl-tail"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want := golden(t, id)
			for _, shards := range []int{0, 2, 8} {
				opt := goldenOpt
				opt.Shards, opt.Audit = shards, true
				if got := render(t, id, opt); got != want {
					t.Errorf("shards=%d audited output diverges from the golden\n--- golden ---\n%s\n--- shards=%d ---\n%s",
						shards, want, shards, got)
				}
			}
		})
	}
}
