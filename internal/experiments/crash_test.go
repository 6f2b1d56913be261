package experiments

import (
	"testing"

	"falcon/internal/reconfig"
)

// TestCrashScheduleWithClientPartition drives abl-crash with schedules
// the built-in plan never uses: the sender cut off from the KV long
// enough to negative-cache its destination, with and without a server
// crash. Every send must stay accounted (a negative-cache hit on the
// partitioned transmit path used to vanish uncounted), and the
// partition-only schedule must run at all (it used to index the empty
// crash list).
func TestCrashScheduleWithClientPartition(t *testing.T) {
	part := []reconfig.PartitionEvent{{Host: "client", AtMs: 1, HealMs: 12}}
	for _, cs := range []*reconfig.CrashSchedule{
		{Crashes: []reconfig.CrashEvent{{Host: "server", AtMs: 2, RebootMs: 6}}, Partitions: part},
		{Partitions: part},
	} {
		opt := goldenOpt
		opt.Crash, opt.Audit = cs, true
		for _, row := range ablCrash(opt)[1].Rows {
			if row[4] != "0" {
				t.Errorf("%d crash(es), %s: %s packets unaccounted", len(cs.Crashes), row[0], row[4])
			}
		}
	}
}
