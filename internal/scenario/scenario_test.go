package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// valid returns a minimal scenario every field-mutation test starts from.
func valid() Scenario {
	return Scenario{
		Seed: 7, Cores: 8, LinkGbps: 100, Containers: 1,
		FalconCPUs: []int{3, 4}, GRO: true,
		AppCore: 2, WarmupMs: 1, WindowMs: 3,
		Flows: []FlowSpec{{Proto: "udp", Size: 1024, Ctr: 1, SendCore: 1}},
	}
}

func TestValidateAcceptsBaseline(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"zero-seed", func(s *Scenario) { s.Seed = 0 }},
		{"too-few-cores", func(s *Scenario) { s.Cores = MinCores - 1 }},
		{"too-many-cores", func(s *Scenario) { s.Cores = MaxCores + 1 }},
		{"bad-link-rate", func(s *Scenario) { s.LinkGbps = 25 }},
		{"tiny-mtu", func(s *Scenario) { s.MTU = 100 }},
		{"negative-containers", func(s *Scenario) { s.Containers = -1 }},
		{"unknown-kernel", func(s *Scenario) { s.Kernel = "4.9" }},
		{"falcon-cpu-off-machine", func(s *Scenario) { s.FalconCPUs = []int{8} }},
		{"app-core-off-machine", func(s *Scenario) { s.AppCore = 99 }},
		{"zero-warmup", func(s *Scenario) { s.WarmupMs = 0 }},
		{"window-too-long", func(s *Scenario) { s.WindowMs = MaxWindow + 1 }},
		{"no-flows", func(s *Scenario) { s.Flows = nil }},
		{"unknown-proto", func(s *Scenario) { s.Flows[0].Proto = "sctp" }},
		{"oversize-udp", func(s *Scenario) { s.Flows[0].Size = 70000 }},
		{"negative-rate", func(s *Scenario) { s.Flows[0].RatePPS = -1 }},
		{"ctr-beyond-containers", func(s *Scenario) { s.Flows[0].Ctr = 2 }},
		{"send-core-off-machine", func(s *Scenario) { s.Flows[0].SendCore = 20 }},
		{"open-loop-bad-dist", func(s *Scenario) {
			s.OpenLoop = &OpenLoopSpec{Dist: "cauchy", Arrivals: "poisson",
				FlowsPerSec: 2000, MeanPkts: 8, Size: 256, FlowRatePPS: 40000, Ports: 1}
		}},
		{"open-loop-bad-arrivals", func(s *Scenario) {
			s.OpenLoop = &OpenLoopSpec{Dist: "pareto", Arrivals: "sawtooth",
				FlowsPerSec: 2000, MeanPkts: 8, Size: 256, FlowRatePPS: 40000, Ports: 1}
		}},
		{"open-loop-offered-overload", func(s *Scenario) {
			s.OpenLoop = &OpenLoopSpec{Dist: "pareto", Arrivals: "poisson",
				FlowsPerSec: 50000, MeanPkts: 64, Size: 256, FlowRatePPS: 40000, Ports: 1}
		}},
		{"open-loop-oversize-packet", func(s *Scenario) {
			s.OpenLoop = &OpenLoopSpec{Dist: "pareto", Arrivals: "poisson",
				FlowsPerSec: 2000, MeanPkts: 8, Size: 4096, FlowRatePPS: 40000, Ports: 1}
		}},
		{"unknown-fault-kind", func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: "meteor", AtMs: 0, ForMs: 1}}
		}},
		{"fault-outside-window", func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: "link-loss", AtMs: 2, ForMs: 5, Rate: 0.1}}
		}},
		{"fault-rate-above-one", func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: "link-loss", AtMs: 0, ForMs: 1, Rate: 1.5}}
		}},
		{"fault-core-off-machine", func(s *Scenario) {
			s.Faults = []FaultSpec{{Kind: "core-stall", AtMs: 0, ForMs: 1, Cores: []int{12}}}
		}},
		{"crash-reboot-outside-window", func(s *Scenario) {
			s.Reconfigs = []ReconfigSpec{{Kind: "crash", AtMs: 2, ForMs: 5}}
		}},
		{"crash-without-reboot-window", func(s *Scenario) {
			s.Reconfigs = []ReconfigSpec{{Kind: "crash", AtMs: 1}}
		}},
		{"crash-with-tcp-flow", func(s *Scenario) {
			s.Flows[0].Proto = "tcp"
			s.Reconfigs = []ReconfigSpec{{Kind: "crash", AtMs: 1, ForMs: 1}}
		}},
		{"crash-with-host-networking", func(s *Scenario) {
			s.Flows[0].Ctr = 0
			s.Reconfigs = []ReconfigSpec{{Kind: "crash", AtMs: 1, ForMs: 1}}
		}},
		{"crash-not-sole-reconfig", func(s *Scenario) {
			s.Reconfigs = []ReconfigSpec{
				{Kind: "crash", AtMs: 1, ForMs: 1},
				{Kind: "kernel-upgrade", AtMs: 2},
			}
		}},
		{"double-crash", func(s *Scenario) {
			s.Reconfigs = []ReconfigSpec{
				{Kind: "crash", AtMs: 1, ForMs: 1},
				{Kind: "crash", AtMs: 2, ForMs: 1},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := valid()
			tc.mut(&sc)
			if sc.Validate() == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}
}

func TestGenerateAlwaysValid(t *testing.T) {
	// Every generated scenario must pass the same validator hand-written
	// ones do — the fuzzer treats a violation here as a finding.
	for seed := uint64(1); seed <= 300; seed++ {
		sc := Generate(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sc.Seed != seed {
			t.Fatalf("seed %d: scenario records seed %d", seed, sc.Seed)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 17, 255} {
		if a, b := Generate(seed), Generate(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, sc := range []Scenario{valid(), Generate(42), Generate(99)} {
		back, err := FromJSON([]byte(sc.JSON()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("round trip changed the scenario:\n  in:  %+v\n  out: %+v", sc, back)
		}
	}
}

func TestLoadFileBareScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bare.json")
	if err := os.WriteFile(path, []byte(valid().JSON()), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, names, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if names != nil {
		t.Fatalf("bare scenario pinned oracles %v", names)
	}
	if !reflect.DeepEqual(sc, valid()) {
		t.Fatal("bare scenario mangled")
	}
}

func TestLoadFileReproducer(t *testing.T) {
	rep := Reproducer{Magic: ReproMagic, Oracle: "determinism", Seed: 9,
		Detail: "example", Command: "falconsim -scenario x.json", Scenario: valid()}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, names, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "determinism" {
		t.Fatalf("reproducer pinned %v, want [determinism]", names)
	}
	if !reflect.DeepEqual(sc, valid()) {
		t.Fatal("reproducer scenario mangled")
	}
	// An invalid embedded scenario must be rejected even via the
	// reproducer path.
	bad := rep
	bad.Scenario.Cores = 1
	data, _ = json.Marshal(bad)
	os.WriteFile(path, data, 0o644)
	if _, _, err := LoadFile(path); err == nil {
		t.Fatal("invalid reproducer scenario accepted")
	}
}

func TestByNameSelection(t *testing.T) {
	all, err := ByName(nil)
	if err != nil || len(all) != 8 {
		t.Fatalf("full battery = %d oracles, err %v; want 8", len(all), err)
	}
	sel, err := ByName([]string{"conservation", "fault-sanity"})
	if err != nil || len(sel) != 2 || sel[0].Name != "conservation" || sel[1].Name != "fault-sanity" {
		t.Fatalf("selection wrong: %v, err %v", sel, err)
	}
	if _, err := ByName([]string{"astrology"}); err == nil {
		t.Fatal("unknown oracle accepted")
	}
}

func TestShrinkPreservesValidity(t *testing.T) {
	// Shrinking against an oracle the scenario satisfies must return the
	// scenario unchanged (no mutation reproduces a non-failure) — and
	// never propose an invalid config along the way. Use a tiny scenario
	// so the budgeted re-checks stay cheap.
	sc := valid()
	sc.WindowMs = 2
	min, checks := Shrink(sc, "conservation", 6)
	if err := min.Validate(); err != nil {
		t.Fatalf("shrink produced invalid scenario: %v", err)
	}
	if checks > 6 {
		t.Fatalf("shrink used %d checks, budget 6", checks)
	}
	if !reflect.DeepEqual(min, sc) {
		t.Fatal("shrink moved away from a passing scenario")
	}
}
