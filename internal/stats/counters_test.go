package stats

import "testing"

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("value = %d", c.Value())
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
	ic := MakeIRQCounters(4)
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
}

func TestIRQKindString(t *testing.T) {
	names := map[IRQKind]string{
		IRQHard: "HW", IRQNetRX: "NET_RX", IRQRES: "RES",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestCPUContextString(t *testing.T) {
	if CtxSoftIRQ.String() != "softirq" || CtxIdle.String() != "idle" {
		t.Fatal("context names wrong")
	}
}
