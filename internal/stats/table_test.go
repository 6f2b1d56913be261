package stats

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"name", "value"}}
	tb.AddRow(Text("alpha"), Num("%.0f", 1))
	tb.AddRow(Text("b"), Num("%.0f", 22222))
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

func TestTableValue(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"link", "proto", "Gbps", "p50/p99", "verdict"}}
	tb.AddRow(Text("10G"), Text("UDP"), Num("%.2f", 9.984), Num("%.1f/%.1f", 5.25, 7), Text("OK"))
	tb.AddRow(Text("100G"), Text("UDP"), Num("%.2f", 45.756), Num("%.1f/%.1f", 3, 4), Text("OK"))
	want := "== demo ==\n" +
		"link  proto  Gbps   p50/p99  verdict\n" +
		"10G   UDP    9.98   5.2/7.0  OK     \n" +
		"100G  UDP    45.76  3.0/4.0  OK     \n"
	if got := tb.String(); got != want {
		t.Fatalf("rendered\n%q\nwant\n%q", got, want)
	}
	if v, err := tb.Value("Gbps", "100G", "UDP"); err != nil || v != 45.756 {
		t.Fatalf("Value = %v, %v; want the unrounded 45.756", v, err)
	}
	if v, err := tb.Value("Gbps", "10G"); err != nil || v != 9.984 {
		t.Fatalf("Value by leading label = %v, %v", v, err)
	}
	for _, bad := range [][]string{
		{"Gbps", "40G"},        // no such row
		{"Mpps", "10G"},        // no such column
		{"verdict", "10G"},     // text cell
		{"p50/p99", "10G"},     // composite cell
		{"Gbps", "10G", "TCP"}, // leading cells differ
	} {
		if v, err := tb.Value(bad[0], bad[1:]...); err == nil {
			t.Errorf("Value(%q) = %v, want an error", bad, v)
		}
	}
}
