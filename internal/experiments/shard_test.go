package experiments

import "testing"

// TestShardInvariance is the determinism contract of the PDES engine:
// every experiment prints its golden (captured on the serial engine)
// byte for byte on a conservative multi-shard cluster too, for every
// shard count. A single shard builds the serial engine, so the golden
// run itself covers shards=1. fig10 covers the steady UDP datapath (two
// hosts, two shards, one busy direction), abl-chaos covers fault
// injection with coordinator-side Apply/Revert events and RNG-heavy
// degraded paths, and abl-tail covers the heavy-tailed open-loop
// generators: thousands of churning flows whose send schedule must be
// identical however the datapath is sharded. mesh8 covers the 8-host
// topology where every shard both sends and receives cross-shard
// traffic; TestAdaptiveHorizonInvariance adds its 4-shard leg.
func TestShardInvariance(t *testing.T) {
	matchGolden(t, plain,
		goldenRow{"fig10", []int{2, 8}},
		goldenRow{"abl-chaos", []int{2, 8}},
		goldenRow{"mesh8", []int{2, 8}},
		goldenRow{"abl-tail", []int{2, 8}},
	)
}

// TestAdaptiveHorizonInvariance pins the safe-horizon windows to the
// serial semantics: mesh8 — the topology where every shard both sends
// and receives — prints its serial golden byte for byte on a 4-shard
// cluster, where two hosts share each LP. Window placement is a pure
// scheduling concern; it must never leak into a simulated result.
// (TestShardInvariance covers mesh8 at 2 and 8 shards; internal/sim's
// TestClusterAdaptiveWindowsWider holds a cluster with unequal
// lookaheads to the serial engine.)
func TestAdaptiveHorizonInvariance(t *testing.T) {
	matchGolden(t, plain, goldenRow{"mesh8", []int{4}})
}

// TestShardInvarianceWithAudit repeats the invariance check with the
// full audit harness attached: the one SKB ledger written from every
// LP, audit re-points on cross-shard arrival, and coordinator-driven
// invariant sweeps must not perturb a single simulated result either,
// serial or sharded.
// mesh8 covers the mesh ring, which is audited through the same
// harness as the testbeds. TestGoldenUnchangedWithAuditEnabled renders
// fig10 and abl-chaos audited on the serial engine, so they run sharded
// only here.
func TestShardInvarianceWithAudit(t *testing.T) {
	matchGolden(t, audited,
		goldenRow{"fig10", []int{2, 8}},
		goldenRow{"abl-chaos", []int{2, 8}},
		goldenRow{"abl-tail", []int{0, 2, 8}},
		goldenRow{"mesh8", []int{0, 2, 8}},
	)
}
