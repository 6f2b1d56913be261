package experiments

import (
	"path/filepath"
	"testing"

	"falcon/internal/reconfig"
)

// TestCrashScheduleWithClientPartition drives abl-crash with schedules
// the built-in plan never uses, each loaded from testdata/<name>.json:
//   - abl-crash-partition: the sender cut off from the KV from 1 to
//     12 ms, across the server crash and fail-over, long enough to
//     negative-cache its destination;
//   - abl-crash-partition-only: the same partition without a crash;
//   - abl-crash-partition-rejoin: the sender cut off from 5 to 12 ms,
//     so the rejoin's remap expires its entries toward the spare and it
//     serves them stale up to PartitionStaleBound, then retries.
//
// Each schedule's rendered tables are pinned byte for byte to
// golden_<name>_quick_seed1.txt, which pins the partitioned transmit
// path: stale serves, retry/backoff, the negative cache and the heal.
// Every send must also stay accounted under the audit.
func TestCrashScheduleWithClientPartition(t *testing.T) {
	for _, name := range []string{"abl-crash-partition", "abl-crash-partition-only", "abl-crash-partition-rejoin"} {
		t.Run(name, func(t *testing.T) {
			sched, err := reconfig.LoadFile(filepath.Join("testdata", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			opt := goldenOpt
			opt.Reconfig, opt.Audit = sched, true
			tables := experiment(t, "abl-crash").Run(opt)
			for _, row := range tables[1].Rows {
				if n := value(t, tables[1], "unaccounted", row[0].String()); n != 0 {
					t.Errorf("%s: %.0f packets unaccounted", row[0], n)
				}
			}
			if got, want := renderTables(tables), golden(t, name); got != want {
				t.Fatalf("%s output diverged from its golden.\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
			}
		})
	}
}
