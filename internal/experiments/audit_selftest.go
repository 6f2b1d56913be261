package experiments

import (
	"falcon/internal/audit"
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// Hidden audit selftests: each seeds one deliberate datapath defect and
// relies on the auditor to abort the run with the right attribution.
// They are the negative coverage for the audit subsystem and the
// concrete failures `falconsim -replay` reproduces — excluded from
// All() so -all runs stay green.

func init() {
	registerHidden("audit-leak", "Audit selftest: seeded SKB leak (must abort)", auditLeak)
	registerHidden("audit-double-free", "Audit selftest: seeded double-free (must abort)", auditDoubleFree)
	registerHidden("audit-stall", "Audit selftest: stalled NAPI/softirq core (must abort)", auditStall)
}

// auditSelftest runs the single-flow bed with auditing always on
// (selftests are meaningless without it): one UDP flow at rate pps
// until the given time, with the seeded defect planted at time at.
func auditSelftest(opt Options, cfg audit.Config, pps float64, until, at sim.Time, defect func(tb *workload.Testbed)) []*stats.Table {
	opt.Audit = false // attached below with the selftest's own config
	tb := newSingleFlowBed(workload.ModeCon, opt, 100*devices.Gbps, false)
	opt.track(tb.EnableAudit(cfg))
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, singleFlowAppCore, 1)
	f.SendAtRate(pps, until)
	tb.E.At(at, func() { defect(tb) })
	tb.Run(until + 5*sim.Millisecond)
	return nil
}

// auditLeak acquires one ledgered SKB mid-run and never frees it: the
// teardown leak check must abort naming site "selftest:leak".
func auditLeak(opt Options) []*stats.Table {
	return auditSelftest(opt, audit.Config{}, 20_000, opt.warmup(), opt.warmup()/2, func(tb *workload.Testbed) {
		s := skb.NewTx(64, 0, 0)
		s.Audit(tb.Audit, "selftest:leak")
		s.Stage("selftest:limbo")
	})
}

// auditDoubleFree frees one ledgered SKB twice: the pool rejects the
// second free and the auditor must abort with kind "double-free".
func auditDoubleFree(opt Options) []*stats.Table {
	return auditSelftest(opt, audit.Config{}, 20_000, opt.warmup(), opt.warmup()/2, func(tb *workload.Testbed) {
		s := skb.NewTx(64, 0, 0)
		s.Audit(tb.Audit, "selftest:double-free")
		s.Stage("selftest:used")
		s.Free()
		s.Free() // the seeded defect
	})
}

// auditStall wedges the RPS core mid-run and never revives it: packets
// pile up on its backlog with zero progress, and the watchdog must
// abort with the per-core state dump. WatchFrozen is on because the
// stall is injected through the same fault mechanism the chaos harness
// uses (which the watchdog exempts by default).
func auditStall(opt Options) []*stats.Table {
	until := opt.warmup() + opt.window()
	return auditSelftest(opt, audit.Config{WatchFrozen: true}, 100_000, until, opt.warmup(), func(tb *workload.Testbed) {
		tb.Server.M.Core(1).SetStalled(true) // the seeded defect: never unstalled
	})
}
