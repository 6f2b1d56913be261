package reconfig_test

import (
	"testing"

	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/reconfig"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/workload"
)

func boolp(v bool) *bool { return &v }

func TestScheduleValidate(t *testing.T) {
	ok := func(acts ...reconfig.Action) *reconfig.Schedule { return &reconfig.Schedule{Actions: acts} }
	valid := []*reconfig.Schedule{
		ok(),
		ok(reconfig.Action{Kind: reconfig.KindKernelUpgrade, AtMs: 0, Host: "server", Kernel: "linux-5.4"}),
		ok(reconfig.Action{Kind: reconfig.KindDrain, AtMs: 1, Host: "server", To: "spare", TransitUs: 200},
			reconfig.Action{Kind: reconfig.KindAdd, AtMs: 3, Host: "server"}),
		ok(reconfig.Action{Kind: reconfig.KindRPSFlip, AtMs: 2, Host: "server", Enable: boolp(false)},
			reconfig.Action{Kind: reconfig.KindRPSFlip, AtMs: 2, Host: "server", Enable: boolp(true)}),
	}
	for i, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("valid schedule %d rejected: %v", i, err)
		}
	}

	invalid := map[string]*reconfig.Schedule{
		"negative-at": ok(reconfig.Action{Kind: reconfig.KindKernelUpgrade, AtMs: -1, Host: "h", Kernel: "5.4"}),
		"time-disordered": ok(
			reconfig.Action{Kind: reconfig.KindKernelUpgrade, AtMs: 3, Host: "h", Kernel: "5.4"},
			reconfig.Action{Kind: reconfig.KindKernelUpgrade, AtMs: 1, Host: "h", Kernel: "5.4"}),
		"missing-host":           ok(reconfig.Action{Kind: reconfig.KindKernelUpgrade, AtMs: 0, Kernel: "5.4"}),
		"upgrade-sans-kernel":    ok(reconfig.Action{Kind: reconfig.KindKernelUpgrade, AtMs: 0, Host: "h"}),
		"flip-sans-enable":       ok(reconfig.Action{Kind: reconfig.KindRPSFlip, AtMs: 0, Host: "h"}),
		"steer-sans-enable":      ok(reconfig.Action{Kind: reconfig.KindSteerFlip, AtMs: 0, Host: "h"}),
		"drain-sans-target":      ok(reconfig.Action{Kind: reconfig.KindDrain, AtMs: 0, Host: "h"}),
		"drain-onto-self":        ok(reconfig.Action{Kind: reconfig.KindDrain, AtMs: 0, Host: "h", To: "h"}),
		"drain-negative-transit": ok(reconfig.Action{Kind: reconfig.KindDrain, AtMs: 0, Host: "h", To: "s", TransitUs: -1}),
		"double-drain": ok(
			reconfig.Action{Kind: reconfig.KindDrain, AtMs: 0, Host: "h", To: "s"},
			reconfig.Action{Kind: reconfig.KindDrain, AtMs: 1, Host: "h", To: "s"}),
		"add-sans-drain": ok(reconfig.Action{Kind: reconfig.KindAdd, AtMs: 0, Host: "h"}),
		"unknown-kind":   ok(reconfig.Action{Kind: "reboot", AtMs: 0, Host: "h"}),
	}
	for name, s := range invalid {
		if s.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestFromJSONRejectsGarbage(t *testing.T) {
	if _, err := reconfig.FromJSON([]byte("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := reconfig.FromJSON([]byte(`{"actions":[{"kind":"warp","at_ms":0,"host":"h"}]}`)); err == nil {
		t.Fatal("unknown kind accepted via JSON")
	}
	s, err := reconfig.FromJSON([]byte(`{"actions":[{"kind":"drain","at_ms":1,"host":"server","to":"spare","transit_us":200},{"kind":"add","at_ms":2,"host":"server"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Actions) != 2 || s.Actions[0].Kind != reconfig.KindDrain {
		t.Fatalf("parsed schedule mangled: %+v", s)
	}
}

// newDrainTestbed is the three-host bed the manager tests drive: one
// fixed-rate overlay UDP flow, Falcon attached to the server, drain at
// 1 ms, add at 4 ms.
func newDrainTestbed(t *testing.T) (*workload.Testbed, *reconfig.Manager, *workload.UDPFlow) {
	t.Helper()
	tb := workload.NewTestbed(workload.TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1},
		GRO: true, InnerGRO: true, Seed: 1, Spare: true,
	})
	tb.EnableFalconOnServer(falconcore.DefaultConfig([]int{3, 4, 5}))
	sched := &reconfig.Schedule{Actions: []reconfig.Action{
		{Kind: reconfig.KindDrain, AtMs: 1, Host: "server", To: "spare", TransitUs: 200},
		{Kind: reconfig.KindAdd, AtMs: 4, Host: "server"},
	}}
	mgr := reconfig.New(tb.Net, sched)
	if err := mgr.Arm(0, 0); err != nil {
		t.Fatal(err)
	}
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 2, 1)
	return tb, mgr, f
}

// TestDrainQuiescesAndDetaches drives a drain under live traffic and
// asserts the full drain protocol: every generation recorded, the
// drained host's datapath quiesced within the ladder, its LP detached,
// and the add reattached it.
func TestDrainQuiescesAndDetaches(t *testing.T) {
	tb, mgr, f := newDrainTestbed(t)
	spareSock := tb.Spare.OpenUDP(tb.ServerCtrs[0].IP, 5001, 2)
	f.SendAtRate(100_000, 6*sim.Millisecond)
	tb.Run(8 * sim.Millisecond)

	recs := mgr.Records()
	if len(recs) != 2 {
		t.Fatalf("%d generation records, want 2", len(recs))
	}
	drain, add := recs[0], recs[1]
	if drain.Gen != 1 || add.Gen != 2 {
		t.Fatalf("generation numbering: drain=%d add=%d", drain.Gen, add.Gen)
	}
	if !drain.Detached {
		t.Fatal("drained host never detached")
	}
	if drain.QuiescedAt < drain.Applied {
		t.Fatalf("quiesce time %v before drain applied at %v", drain.QuiescedAt, drain.Applied)
	}
	if budget := drain.Applied + 200*100*sim.Microsecond; drain.QuiescedAt > budget {
		t.Fatalf("quiesce at %v exceeds the ladder budget %v", drain.QuiescedAt, budget)
	}
	if !add.Reattached {
		t.Fatal("add did not reattach the host")
	}
	if spareSock.Delivered.Value() == 0 {
		t.Fatal("no packets delivered on the spare twin after the drain")
	}

	// Conservation across the swaps: every send is delivered on one of
	// the two sockets, counted in a drop bucket, or still in the TX path.
	snap := tb.Net.Drops()
	delivered := f.Sock.Delivered.Value() + spareSock.Delivered.Value()
	sockDrops := f.Sock.SocketDrops.Value() + spareSock.SocketDrops.Value()
	if unaccounted := overlay.Unaccounted(f.Sent(), delivered, sockDrops, tb.Client.TxPending(), snap); unaccounted != 0 {
		t.Fatalf("%d packets unaccounted across the drain/add (sent=%d delivered=%d drops: %v)",
			unaccounted, f.Sent(), delivered, snap)
	}
}

// TestCrashScheduleValidate checks the crash and partition rules of
// Schedule.Validate: until_ms after at_ms, at most one crash per host, a
// distinct standby host, and no overlapping partitions of one host.
func TestCrashScheduleValidate(t *testing.T) {
	crash := func(host string, at, until int) reconfig.Action {
		return reconfig.Action{Kind: reconfig.KindCrash, AtMs: at, Host: host, To: "spare", UntilMs: until}
	}
	partition := func(host string, at, until int) reconfig.Action {
		return reconfig.Action{Kind: reconfig.KindPartition, AtMs: at, Host: host, UntilMs: until}
	}
	ok := func(acts ...reconfig.Action) *reconfig.Schedule { return &reconfig.Schedule{Actions: acts} }
	valid := []*reconfig.Schedule{
		ok(crash("server", 1, 0)),
		ok(crash("server", 1, 4)),
		ok(crash("server", 1, 4), crash("client", 2, 0)),
		ok(partition("client", 0, 3)),
		ok(partition("client", 1, 10), partition("client", 10, 12)),
		ok(partition("client", 1, 12), crash("server", 2, 6)),
	}
	for i, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("valid crash schedule %d rejected: %v", i, err)
		}
	}
	invalid := map[string]*reconfig.Schedule{
		"missing-host":        ok(crash("", 1, 0)),
		"negative-at":         ok(crash("h", -1, 0)),
		"reboot-before":       ok(crash("h", 3, 2)),
		"reboot-equal":        ok(crash("h", 3, 3)),
		"double-crash":        ok(crash("h", 1, 0), crash("h", 2, 0)),
		"disordered":          ok(crash("a", 3, 0), crash("b", 1, 0)),
		"crash-sans-standby":  ok(reconfig.Action{Kind: reconfig.KindCrash, AtMs: 1, Host: "h"}),
		"crash-onto-self":     ok(reconfig.Action{Kind: reconfig.KindCrash, AtMs: 1, Host: "h", To: "h"}),
		"part-no-host":        ok(partition("", 1, 0)),
		"heal-before-at":      ok(partition("h", 3, 1)),
		"partitions-overlap":  ok(partition("client", 1, 10), partition("client", 5, 12)),
		"partition-after-inf": ok(partition("client", 1, 0), partition("client", 5, 12)),
		"until-on-drain":      ok(reconfig.Action{Kind: reconfig.KindDrain, AtMs: 1, Host: "h", To: "s", UntilMs: 3}),
	}
	for name, s := range invalid {
		if s.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := reconfig.FromJSON([]byte(`{"crashes":[{"host":"server","at_ms":2,"reboot_ms":6}]}`)); err == nil {
		t.Fatal("a schedule in another shape was read as an empty one")
	}
	s, err := reconfig.FromJSON([]byte(`{"actions":[{"kind":"crash","at_ms":2,"host":"server","to":"spare","until_ms":6}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Actions) != 1 || s.Actions[0].UntilMs != 6 {
		t.Fatalf("parsed crash schedule mangled: %+v", s)
	}
}

// newCrashTestbed builds the three-host bed with a scheduled server
// crash over [1.5ms, 8.5ms) whose containers fail over to the spare's
// twins, armed through Manager.Arm like every experiment and scenario.
// Action times are whole ms from the base, so a 0.5ms base keeps the
// crash off the 1ms machine-tick grid.
func newCrashTestbed(t *testing.T, shards int) (*workload.Testbed, *reconfig.Manager, *workload.UDPFlow, sim.Time) {
	t.Helper()
	tb := workload.NewTestbed(workload.TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1},
		GRO: true, InnerGRO: true, Seed: 1, Spare: true, Shards: shards,
	})
	mgr := reconfig.New(tb.Net, &reconfig.Schedule{Actions: []reconfig.Action{
		{Kind: reconfig.KindCrash, AtMs: 1, Host: "server", To: "spare", UntilMs: 8},
	}})
	if err := mgr.Arm(500*sim.Microsecond, 16*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 2, 1)
	return tb, mgr, f, 1500 * sim.Microsecond
}

// crashTimeline runs a crash bed to completion and reduces it to the
// values the invariance test compares byte-for-byte.
type crashTimeline struct {
	kinds     []string
	applied   []sim.Time
	delivered uint64
	crashed   uint64
}

func runCrashBed(t *testing.T, shards int) (*workload.Testbed, *reconfig.Manager, *workload.UDPFlow, *socket.Socket, sim.Time, crashTimeline) {
	t.Helper()
	tb, mgr, f, crashAt := newCrashTestbed(t, shards)
	spareSock := tb.Spare.OpenUDP(tb.ServerCtrs[0].IP, 5001, 2)
	f.SendAtRate(100_000, 14*sim.Millisecond)
	tb.Run(16 * sim.Millisecond)
	tl := crashTimeline{
		delivered: f.Sock.Delivered.Value() + spareSock.Delivered.Value(),
		crashed:   tb.Net.Drops()[overlay.BucketCrash],
	}
	for _, rec := range mgr.Records() {
		tl.kinds = append(tl.kinds, rec.Action.Kind)
		tl.applied = append(tl.applied, rec.Applied)
	}
	return tb, mgr, f, spareSock, crashAt, tl
}

// TestDetectorFailoverAndRejoin drives the full crash–recover fault
// domain: heartbeats stop, the detector declares death within its
// bound, containers remap onto the spare's standby twin, the corpse's
// LP detaches, the reboot is re-admitted — and not one packet goes
// unaccounted.
func TestDetectorFailoverAndRejoin(t *testing.T) {
	tb, mgr, f, spareSock, crashAt, tl := runCrashBed(t, 0)

	recs := mgr.Records()
	if len(recs) != 2 {
		t.Fatalf("%d generation records, want 2 (fail-over + rejoin): %v", len(recs), tl.kinds)
	}
	fo, rj := recs[0], recs[1]
	if fo.Action.Kind != reconfig.KindFailover || fo.Action.To != "spare" {
		t.Fatalf("first record is %+v, want fail-over onto spare", fo.Action)
	}
	// Detection bound: timeout (2ms) + two sick scans (2 x 0.5ms) +
	// heartbeat age at death (< one 1ms tick).
	if lat := fo.Applied - crashAt; lat > 4*sim.Millisecond {
		t.Fatalf("detection latency %v exceeds the detector bound", lat)
	}
	if !fo.Detached {
		t.Fatal("the corpse's LP never detached")
	}
	if fo.QuiescedAt < fo.Applied {
		t.Fatalf("quiesce at %v before fail-over at %v", fo.QuiescedAt, fo.Applied)
	}
	if rj.Action.Kind != reconfig.KindRejoin || !rj.Reattached {
		t.Fatalf("second record is %+v, want rejoin", rj.Action)
	}
	if rj.Applied < 8500*sim.Microsecond {
		t.Fatalf("rejoin at %v precedes the reboot", rj.Applied)
	}

	// Delivery moved to the twin and the crash destroyed real packets —
	// all of them accounted.
	if spareSock.Delivered.Value() == 0 {
		t.Fatal("no packets delivered on the spare twin after fail-over")
	}
	snap := tb.Net.Drops()
	if snap[overlay.BucketCrash] == 0 {
		t.Fatal("crash drop bucket empty — the blackout destroyed nothing?")
	}
	delivered := f.Sock.Delivered.Value() + spareSock.Delivered.Value()
	sockDrops := f.Sock.SocketDrops.Value() + spareSock.SocketDrops.Value()
	if unaccounted := overlay.Unaccounted(f.Sent(), delivered, sockDrops, tb.Client.TxPending(), snap); unaccounted != 0 {
		t.Fatalf("%d packets unaccounted across crash+reboot (sent=%d delivered=%d drops: %v)",
			unaccounted, f.Sent(), delivered, snap)
	}
}

// TestCrashFailoverShardInvariance: the crash, the detector's scans and
// the fail-over/rejoin generations are coordinator events with fixed
// schedules, so the sharded cluster must produce the exact serial
// timeline — same record kinds, same application times, same delivery
// and crash-drop counts.
func TestCrashFailoverShardInvariance(t *testing.T) {
	_, _, _, _, _, serial := runCrashBed(t, 0)
	_, _, _, _, _, sharded := runCrashBed(t, 4)
	if len(serial.kinds) != len(sharded.kinds) {
		t.Fatalf("record counts differ: serial %v, sharded %v", serial.kinds, sharded.kinds)
	}
	for i := range serial.kinds {
		if serial.kinds[i] != sharded.kinds[i] || serial.applied[i] != sharded.applied[i] {
			t.Fatalf("record %d differs: serial %s@%v, sharded %s@%v", i,
				serial.kinds[i], serial.applied[i], sharded.kinds[i], sharded.applied[i])
		}
	}
	if serial.delivered != sharded.delivered {
		t.Fatalf("delivered differs: serial %d, sharded %d", serial.delivered, sharded.delivered)
	}
	if serial.crashed != sharded.crashed {
		t.Fatalf("crash drops differ: serial %d, sharded %d", serial.crashed, sharded.crashed)
	}
}

// TestHealthStableThroughDrain: the draining host's Falcon health
// tracker must not flap — going idle during a drain (no traffic, then
// no ticks at all) is not sickness, so the healthy set stays at the
// full FALCON_CPU set through drain, detach, and re-add.
func TestHealthStableThroughDrain(t *testing.T) {
	tb, mgr, f := newDrainTestbed(t)
	tb.Spare.OpenUDP(tb.ServerCtrs[0].IP, 5001, 2)
	f.SendAtRate(100_000, 6*sim.Millisecond)

	const cpus = 3
	bad := 0
	for i := 0; i < 16; i++ {
		at := sim.Time(i) * 500 * sim.Microsecond
		tb.E.At(at, func() {
			if got := len(tb.Server.Falcon.HealthyCPUs()); got != cpus {
				bad++
				t.Errorf("at %v: healthy set has %d cpus, want %d", at, got, cpus)
			}
		})
	}
	tb.Run(8 * sim.Millisecond)
	if got := len(tb.Server.Falcon.HealthyCPUs()); got != cpus {
		t.Fatalf("final healthy set has %d cpus, want %d", got, cpus)
	}
	if recs := mgr.Records(); !recs[0].Detached {
		t.Fatal("drain never detached (health samples would be vacuous)")
	}
	_ = bad
}
