package cpu

import (
	"strings"
	"testing"

	"falcon/internal/costmodel"
	"falcon/internal/stats"
)

// newLedger and newLoadMeter build the accounts on their own, as
// NewMachine builds them inside the machine's allocation.
func newLedger(cores int) *Ledger {
	l := new(Ledger)
	l.init(cores)
	return l
}

func newLoadMeter(cores int) *LoadMeter {
	m := new(LoadMeter)
	m.init(cores)
	return m
}

func TestLedgerChargeAndShares(t *testing.T) {
	l := newLedger(2)
	l.charge(0, stats.CtxSoftIRQ, costmodel.FnGROReceive, 600, 600)
	l.charge(1, stats.CtxSoftIRQ, costmodel.FnSKBAlloc, 300, 300)
	l.charge(1, stats.CtxTask, costmodel.FnSKBAlloc, 100, 400)

	if l.Calls(costmodel.FnSKBAlloc) != 2 {
		t.Fatalf("alloc calls = %d", l.Calls(costmodel.FnSKBAlloc))
	}
	if l.CoreTime(1, costmodel.FnSKBAlloc) != 400 || l.CoreTime(0, costmodel.FnSKBAlloc) != 0 {
		t.Fatal("per-core function attribution wrong")
	}
	if l.Busy(1, stats.CtxSoftIRQ) != 300 || l.Busy(1, stats.CtxTask) != 100 || l.TotalBusy(1) != 400 {
		t.Fatal("per-core context attribution wrong")
	}
	if s := l.Share(costmodel.FnGROReceive); s != 0.6 {
		t.Fatalf("share = %v", s)
	}
}

func TestLedgerContextShares(t *testing.T) {
	l := newLedger(2)
	l.charge(0, stats.CtxSoftIRQ, costmodel.FnBridge, 500, 1000)
	l.charge(0, stats.CtxHardIRQ, costmodel.FnNAPIPoll, 100, 1000)
	l.charge(1, stats.CtxTask, costmodel.FnAppWork, 250, 1000)
	if l.TotalBusy(0) != 600 {
		t.Fatalf("busy0 = %d", l.TotalBusy(0))
	}
	if u := l.Utilization(0); u != 0.6 {
		t.Fatalf("util0 = %v", u)
	}
	if u := l.Utilization(1); u != 0.25 {
		t.Fatalf("util1 = %v", u)
	}
	if s := l.ContextShare(0, stats.CtxSoftIRQ); s != 0.5 {
		t.Fatalf("softirq share = %v", s)
	}
}

func TestLedgerClamp(t *testing.T) {
	l := newLedger(1)
	l.charge(0, stats.CtxSoftIRQ, costmodel.FnBridge, 5000, 1000) // overcommitted
	if u := l.Utilization(0); u != 1 {
		t.Fatalf("util should clamp to 1, got %v", u)
	}
	if s := l.ContextShare(0, stats.CtxSoftIRQ); s != 1 {
		t.Fatalf("context share should clamp to 1, got %v", s)
	}
}

func TestLedgerTopOrdering(t *testing.T) {
	l := newLedger(2)
	l.charge(0, stats.CtxSoftIRQ, costmodel.FnBridge, 100, 100)
	l.charge(0, stats.CtxSoftIRQ, costmodel.FnVethXmit, 300, 400)
	l.charge(1, stats.CtxSoftIRQ, costmodel.FnIPRcv, 200, 200)
	top := l.Top(2)
	if len(top) != 2 {
		t.Fatalf("top len = %d", len(top))
	}
	if top[0].Func != costmodel.FnVethXmit || top[1].Func != costmodel.FnIPRcv {
		t.Fatalf("ordering wrong: %v", top)
	}

	// Equal times sort by function, whatever the charge order.
	tie := newLedger(1)
	tie.charge(0, stats.CtxSoftIRQ, costmodel.FnVethXmit, 100, 100)
	tie.charge(0, stats.CtxSoftIRQ, costmodel.FnBridge, 100, 200)
	if top := tie.Top(0); len(top) != 2 || top[0].Func != min(costmodel.FnBridge, costmodel.FnVethXmit) {
		t.Fatalf("tie-break wrong: %v", top)
	}
}

func TestLedgerTopEmpty(t *testing.T) {
	l := newLedger(1)
	if l.Top(5) != nil {
		t.Fatal("empty ledger returned rows")
	}
	if l.Share(costmodel.FnBridge) != 0 {
		t.Fatal("share of empty ledger non-zero")
	}
	if l.Utilization(0) != 0 || l.ContextShare(0, stats.CtxSoftIRQ) != 0 {
		t.Fatal("utilization of an empty window non-zero")
	}
}

func TestLedgerReset(t *testing.T) {
	l := newLedger(1)
	l.charge(0, stats.CtxSoftIRQ, costmodel.FnBridge, 100, 100)
	l.reset(1000)
	if l.TotalBusy(0) != 0 || l.Calls(costmodel.FnBridge) != 0 || l.CoreTime(0, costmodel.FnBridge) != 0 {
		t.Fatal("reset incomplete")
	}
	if l.Top(0) != nil || l.Utilization(0) != 0 {
		t.Fatal("reset window not empty")
	}
	l.charge(0, stats.CtxSoftIRQ, costmodel.FnBridge, 300, 1500)
	if u := l.Utilization(0); u != 0.6 {
		t.Fatalf("utilization after reset = %v, want 0.6 of the 500 ns since it", u)
	}
	if l.TotalBusy(0) != 300 || l.Calls(costmodel.FnBridge) != 1 || l.CoreTime(0, costmodel.FnBridge) != 300 {
		t.Fatal("window after reset does not count only the slices since it")
	}
	// Like /proc/stat, the counters since boot never rewind.
	if l.BusySinceBoot(0) != 400 || l.CoreTimeSinceBoot(0, costmodel.FnBridge) != 400 {
		t.Fatalf("since boot: busy %d, bridge %d; want 400 and 400",
			l.BusySinceBoot(0), l.CoreTimeSinceBoot(0, costmodel.FnBridge))
	}
}

func TestLedgerTable(t *testing.T) {
	l := newLedger(1)
	l.charge(0, stats.CtxSoftIRQ, costmodel.FnGROCellPoll, 1000, 1000)
	l.charge(0, stats.CtxSoftIRQ, costmodel.FnBacklog, 3000, 4000)
	out := l.Table("flame", 10).String()
	if !strings.Contains(out, "gro_cell_poll") || !strings.Contains(out, "process_backlog") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	if !strings.Contains(out, "75.00%") {
		t.Fatalf("share missing:\n%s", out)
	}
}

func TestLoadMeterStaleness(t *testing.T) {
	l := newLedger(2)
	m := newLoadMeter(2)

	l.charge(0, stats.CtxSoftIRQ, costmodel.FnBridge, 800, 1000)
	m.tick(l, 1000)
	if v := m.Load(0); v != 0.8 {
		t.Fatalf("load0 = %v, want 0.8", v)
	}
	if v := m.Load(1); v != 0 {
		t.Fatalf("load1 = %v, want 0", v)
	}
	if avg := m.SystemAvg(); avg != 0.4 {
		t.Fatalf("avg = %v, want 0.4", avg)
	}

	// Between ticks the meter reports stale values even as busy accrues.
	l.charge(1, stats.CtxSoftIRQ, costmodel.FnBridge, 900, 2000)
	if v := m.Load(1); v != 0 {
		t.Fatalf("load should be stale between ticks, got %v", v)
	}
	m.tick(l, 2000)
	if v := m.Load(1); v != 0.9 {
		t.Fatalf("load1 after tick = %v, want 0.9", v)
	}
	if v := m.Load(0); v != 0 {
		t.Fatalf("load0 after idle window = %v, want 0", v)
	}
}
