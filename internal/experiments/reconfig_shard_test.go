package experiments

import (
	"strings"
	"testing"
)

// TestReconfigShardInvariance extends the PDES determinism contract to
// hot reconfiguration: abl-reconfig's generation swaps — kernel
// upgrade, graceful drain with twin handoff, re-add, steering and RPS
// flips — all run as coordinator-side control events, so the rendered
// tables must match the serial golden on every cluster size. The spare
// host lives on shard 2, which makes shards=4 the first configuration
// where client, server, and spare all occupy distinct shards.
func TestReconfigShardInvariance(t *testing.T) {
	want := golden(t, "abl-reconfig")
	if !strings.Contains(want, "OK") || strings.Contains(want, "FAIL") {
		t.Fatalf("abl-reconfig's golden does not pass its own SLOs:\n%s", want)
	}
	for _, shards := range []int{1, 2, 4} {
		opt := goldenOpt
		opt.Shards = shards
		if got := render(t, "abl-reconfig", opt); got != want {
			t.Errorf("shards=%d output diverges from the serial golden\n--- golden ---\n%s\n--- shards=%d ---\n%s",
				shards, want, shards, got)
		}
	}
}

// TestReconfigShardInvarianceWithAudit repeats the check with the audit
// harness attached: the drain's quiesce ladder and the twin handoff
// must keep the SKB ledger clean on every shard layout, and the ledger
// itself must not perturb a single simulated result.
func TestReconfigShardInvarianceWithAudit(t *testing.T) {
	want := golden(t, "abl-reconfig")
	for _, shards := range []int{0, 2, 4} {
		opt := goldenOpt
		opt.Shards, opt.Audit = shards, true
		if got := render(t, "abl-reconfig", opt); got != want {
			t.Errorf("shards=%d audited output diverges from the golden\n--- golden ---\n%s\n--- shards=%d ---\n%s",
				shards, want, shards, got)
		}
	}
}
