package stats

import (
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("value = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestRate(t *testing.T) {
	if r := Rate(1000, 1e9); r != 1000 {
		t.Fatalf("rate = %v", r)
	}
	if r := Rate(500, 5e8); r != 1000 {
		t.Fatalf("rate = %v", r)
	}
	if r := Rate(10, 0); r != 0 {
		t.Fatalf("rate with zero elapsed = %v", r)
	}
}

func TestIRQCounters(t *testing.T) {
	ic := NewIRQCounters(4)
	ic.Inc(0, IRQHard)
	ic.Inc(1, IRQNetRX)
	ic.Inc(1, IRQNetRX)
	ic.Inc(2, IRQRES)
	if ic.Total(IRQNetRX) != 2 {
		t.Fatalf("NET_RX total = %d", ic.Total(IRQNetRX))
	}
	if ic.Core(1, IRQNetRX) != 2 {
		t.Fatalf("NET_RX core1 = %d", ic.Core(1, IRQNetRX))
	}
	if ic.Total(IRQHard) != 1 || ic.Total(IRQRES) != 1 {
		t.Fatal("per-kind totals wrong")
	}
	ic.Reset()
	if ic.Total(IRQNetRX) != 0 {
		t.Fatal("reset failed")
	}
}

func TestIRQKindString(t *testing.T) {
	names := map[IRQKind]string{
		IRQHard: "HW", IRQNetRX: "NET_RX", IRQNetTX: "NET_TX",
		IRQRES: "RES", IRQTimer: "TIMER",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d", len(lines))
	}
	// Column alignment: "value" column starts at same offset in all rows.
	h := strings.Index(lines[1], "value")
	if h < 0 {
		t.Fatal("header missing")
	}
	if lines[2][h-2:h] != "  " && lines[2][h:h+1] == "" {
		t.Fatal("misaligned column")
	}
}

func TestTableSortRows(t *testing.T) {
	tb := &Table{Columns: []string{"k"}}
	tb.AddRow("z")
	tb.AddRow("a")
	tb.AddRow("m")
	tb.SortRows()
	if tb.Rows[0][0] != "a" || tb.Rows[2][0] != "z" {
		t.Fatalf("rows not sorted: %v", tb.Rows)
	}
}

func TestCPUContextString(t *testing.T) {
	if CtxSoftIRQ.String() != "softirq" || CtxIdle.String() != "idle" {
		t.Fatal("context names wrong")
	}
}
