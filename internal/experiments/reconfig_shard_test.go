package experiments

import (
	"slices"
	"testing"
)

// TestReconfigShardInvariance extends the PDES determinism contract to
// hot reconfiguration: abl-reconfig's generation swaps — kernel
// upgrade, graceful drain with twin handoff, re-add, steering and RPS
// flips — all run as coordinator-side control events, so the rendered
// tables must match the serial golden on every cluster size. The spare
// host lives on shard 2, which makes shards=4 the first configuration
// where client, server, and spare all occupy distinct shards. A single
// shard builds the serial engine, so the golden run covers shards=1.
func TestReconfigShardInvariance(t *testing.T) {
	verdict := goldenTables(t, "abl-reconfig")[1]
	for _, row := range verdict.Rows {
		if v := row[slices.Index(verdict.Columns, "verdict")].String(); v != "OK" {
			t.Fatalf("abl-reconfig's golden run fails its own SLOs for %s: %s", row[0], v)
		}
	}
	matchGolden(t, plain, goldenRow{"abl-reconfig", []int{2, 4}})
}

// TestReconfigShardInvarianceWithAudit repeats the check with the audit
// harness attached: the drain's quiesce ladder and the twin handoff
// must keep the SKB ledger clean on every shard layout, and the ledger
// itself must not perturb a single simulated result.
func TestReconfigShardInvarianceWithAudit(t *testing.T) {
	matchGolden(t, audited, goldenRow{"abl-reconfig", []int{0, 2, 4}})
}
