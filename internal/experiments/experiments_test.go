package experiments

import (
	"testing"

	"falcon/internal/devices"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

var quick = Options{Quick: true}

func TestRegistryComplete(t *testing.T) {
	// Every figure in DESIGN.md's experiment index must be registered.
	want := []string{
		"fig2a", "fig2b", "fig2c", "fig2d", "fig4", "fig5", "fig6",
		"fig9a", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19",
		"abl-grosplit", "abl-locality", "abl-stages", "abl-chaos",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("registry has %d, want >= %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

// TestUDPStressShape reads Fig. 10's 16B row at linux-4.19, 100G. The
// core result: Con loses badly, Falcon recovers most of it.
func TestUDPStressShape(t *testing.T) {
	tbl := goldenTable(t, "fig10", "Fig 10: UDP stress packet rate (Kpps), linux-4.19, 100G")
	host, con, fal := value(t, tbl, "Host", "16B"), value(t, tbl, "Con", "16B"), value(t, tbl, "Falcon", "16B")
	if con >= 0.8*host {
		t.Fatalf("overlay loss too small: con=%.1f host=%.1f Kpps", con, host)
	}
	if fal <= con*1.15 {
		t.Fatalf("falcon gain too small: falcon=%.1f con=%.1f Kpps", fal, con)
	}
	if fal < 0.7*host {
		t.Fatalf("falcon too far from host: falcon=%.1f host=%.1f Kpps", fal, host)
	}
}

// TestStress64KShape reads Fig. 2(a)'s UDP rows, the headline: about
// half the throughput lost at 100G with 64K messages, near-native at
// 10G.
func TestStress64KShape(t *testing.T) {
	tbl := goldenTable(t, "fig2a", "Fig 2(a): single-flow throughput, 64K messages")
	host := value(t, tbl, "Host(Gbps)", "100G", "UDP")
	con := value(t, tbl, "Con(Gbps)", "100G", "UDP")
	if loss := 1 - con/host; loss < 0.35 || loss > 0.70 {
		t.Fatalf("100G 64K loss = %.2f, want ~0.5", loss)
	}
	host10 := value(t, tbl, "Host(Gbps)", "10G", "UDP")
	con10 := value(t, tbl, "Con(Gbps)", "10G", "UDP")
	if con10 < 0.9*host10 {
		t.Fatalf("10G 64K should be near-native: con=%.2f host=%.2f Gbps", con10, host10)
	}
}

// TestFixedRateUnderloadedDeliversAll runs its bed directly: no table
// renders the drop counters it checks.
func TestFixedRateUnderloadedDeliversAll(t *testing.T) {
	r := udpFixedRate(workload.ModeCon, quick, 100*devices.Gbps, 1024, 50_000)
	if r.NICDrops+r.BacklogDrops+r.SocketDrops > 0 {
		t.Fatalf("drops in underloaded run: %d/%d/%d",
			r.NICDrops, r.BacklogDrops, r.SocketDrops)
	}
	if r.PPS < 40_000 || r.PPS > 60_000 {
		t.Fatalf("pps = %.0f, want ~50k", r.PPS)
	}
}

// TestLatencyOrdering reads Fig. 2(d)'s UDP average: overlay latency
// must exceed host latency underloaded.
func TestLatencyOrdering(t *testing.T) {
	tbl := goldenTable(t, "fig2d", "Fig 2(d): single-flow latency (us), underloaded, 100G")
	host, con := value(t, tbl, "Host", "UDP", "avg"), value(t, tbl, "Con", "UDP", "avg")
	if con <= host {
		t.Fatalf("overlay latency (%.3fus) not above host (%.3fus)", con, host)
	}
}

// TestTCPBulkShape runs its bed directly: no table renders one TCP flow
// of 4 KB messages.
func TestTCPBulkShape(t *testing.T) {
	host := tcpBulk(workload.ModeHost, quick, 100*devices.Gbps, 4096, 1, false)
	con := tcpBulk(workload.ModeCon, quick, 100*devices.Gbps, 4096, 1, false)
	if host.Gbps <= 0 || con.Gbps <= 0 {
		t.Fatalf("tcp bulk dead: host=%.2f con=%.2f", host.Gbps, con.Gbps)
	}
	if con.Gbps >= host.Gbps {
		t.Fatalf("overlay TCP should lose: host=%.2f con=%.2f", host.Gbps, con.Gbps)
	}
}

// TestSizeLabel covers the labels no golden renders (every golden size
// is 16B, 256B or a KiB multiple).
func TestSizeLabel(t *testing.T) {
	cases := map[int]string{300: "300B", 1500: "1500B"}
	for in, want := range cases {
		if got := sizeLabel(in); got != want {
			t.Errorf("sizeLabel(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestLinkName(t *testing.T) {
	if linkName(10*devices.Gbps) != "10G" || linkName(100*devices.Gbps) != "100G" {
		t.Fatal("link names wrong")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Fatal("default seed wrong")
	}
	o.Seed = 9
	if o.seed() != 9 {
		t.Fatal("explicit seed ignored")
	}
	if quick.window() >= (Options{}).window() {
		t.Fatal("quick window not shorter")
	}
}

// TestFormatters pins the cell constructors' formats, including the
// renderings no golden shows (a count of a signed type, a negative
// recovery time).
func TestFormatters(t *testing.T) {
	for _, tc := range []struct {
		got  stats.Cell
		want string
	}{
		{fKpps(1500), "1.5"},
		{fPct(0.5), "50.0%"},
		{fRatio(2), "2.00x"},
		{fUs(1500), "1.5"},
		{fGbps(1.234), "1.23"},
		{fCount(int64(-3)), "-3"},
		{fRecover(2.25, 1), "2.2"},
		{fRecover(-1, 0), ">window"},
	} {
		if tc.got.String() != tc.want {
			t.Errorf("cell renders %q, want %q", tc.got, tc.want)
		}
	}
}
