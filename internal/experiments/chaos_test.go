package experiments

import "testing"

func TestChaosRegistered(t *testing.T) {
	if _, ok := ByID("abl-chaos"); !ok {
		t.Fatal("abl-chaos not registered")
	}
}

// TestChaosNeverWorseAndBoundedRecovery reads abl-chaos's verdict
// table: under every shipped fault scenario, Falcon with health
// tracking delivers >= 0.98x the vanilla overlay, and per-ms delivery
// recovers within half the measurement window of the fault clearing.
func TestChaosNeverWorseAndBoundedRecovery(t *testing.T) {
	verdict := goldenTables(t, "abl-chaos")[1]
	maxRecover := (goldenOpt.window() / 2).Seconds() * 1e3
	for _, sc := range chaosScenarios() {
		t.Run(sc.key, func(t *testing.T) {
			if ratio := value(t, verdict, "Falcon/Con", sc.key); ratio < 0.98 {
				t.Fatalf("never-worse violated: Falcon/Con = %.3fx", ratio)
			}
			if rec := value(t, verdict, "Falcon recover(ms)", sc.key); rec < 0 || rec > maxRecover {
				t.Fatalf("recovery out of bounds: %.1fms (budget %.1fms)", rec, maxRecover)
			}
		})
	}
}

// TestChaosCoreOfflineDegradesGracefully reads abl-chaos's detail
// table. Offlining 2 of 3 FALCON_CPUs pushes the healthy set below the
// floor: Falcon must visibly fall back to the vanilla path and account
// degraded time, while still delivering the flow.
func TestChaosCoreOfflineDegradesGracefully(t *testing.T) {
	detail := goldenTables(t, "abl-chaos")[0]
	if value(t, detail, "fallback", "cpu-offline", "Falcon") == 0 {
		t.Fatal("no fallback placements during below-floor window")
	}
	if value(t, detail, "degraded(ms)", "cpu-offline", "Falcon") <= 0 {
		t.Fatal("no degraded-mode time accounted")
	}
	offline := value(t, detail, "delivered(Kpps)", "cpu-offline", "Falcon")
	none := value(t, detail, "delivered(Kpps)", "none", "Falcon")
	if offline < 0.98*none {
		t.Fatalf("offline run lost throughput: %.1f vs healthy %.1f Kpps", offline, none)
	}
}

func TestChaosVerdictTableAllOK(t *testing.T) {
	tables := goldenTables(t, "abl-chaos")
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}
	for _, row := range tables[1].Rows {
		if v := row[len(row)-1].String(); v != "OK" {
			t.Fatalf("scenario %s verdict %s", row[0], v)
		}
	}
}
