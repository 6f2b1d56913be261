// Package scenario is the simulator's generative test layer: a seeded
// generator that samples random-but-valid simulation scenarios, a
// battery of metamorphic differential oracles that every scenario must
// satisfy (determinism, packet conservation, kernel equivalence,
// resource monotonicity, fault sanity), and a greedy shrinker that
// reduces any violating scenario to a minimal one-command reproducer.
//
// The package deliberately reuses the exact harnesses the figure
// experiments use (workload.Testbed, MeasureWindow, the audit ledger,
// the fault injector), so a property that holds under fuzz holds for
// the paper's tables too — and a violation found here replays through
// `falconsim -scenario` with nothing but the JSON file.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"

	"falcon/internal/sim"
)

// Generator bounds. The window sizes keep a single run in the tens of
// milliseconds of virtual time so a 50-seed battery fits CI; the core
// and link choices mirror the paper's testbed (20-core servers, 10G
// and 100G NICs).
const (
	MinCores     = 6
	MaxCores     = 16
	MaxFlows     = 4
	MaxFaults    = 2
	MaxReconfigs = 2
	MaxWarmpMs   = 4
	MaxWindow    = 12 // ms
)

// FlowSpec is one traffic source in a scenario.
type FlowSpec struct {
	// Proto is "udp" or "tcp".
	Proto string `json:"proto"`
	// Size is the UDP payload or TCP message size in bytes.
	Size int `json:"size"`
	// RatePPS is the offered rate for UDP (Poisson arrivals); 0 means
	// flood (closed-loop back-to-back sends). Ignored for TCP, which is
	// always a continuous bulk stream.
	RatePPS float64 `json:"rate_pps,omitempty"`
	// Ctr is the 1-based container index on each side (client sends
	// from ClientCtrs[Ctr-1] to ServerCtrs[Ctr-1]); 0 selects host
	// networking.
	Ctr int `json:"ctr"`
	// SendCore is the client core the sender runs on.
	SendCore int `json:"send_core"`
}

// OpenLoopSpec is an optional heavy-tailed open-loop flow population
// riding alongside the explicit flows (see workload.OpenLoopConfig):
// flows arrive by an external process and send on their own clocks, so
// the offered load — and thus the tail-latency behaviour under it — is
// independent of how the datapath under test is coping.
type OpenLoopSpec struct {
	// Dist is the flow-size distribution: "pareto" (alpha 1.5) or
	// "lognormal" (sigma 0.75).
	Dist string `json:"dist"`
	// Arrivals is the arrival process: "poisson" or "mmpp" (two-state,
	// 0.5x/1.5x the mean rate with 500us sojourns).
	Arrivals string `json:"arrivals"`
	// FlowsPerSec is the mean flow arrival rate.
	FlowsPerSec float64 `json:"flows_per_sec"`
	// MeanPkts is the mean flow size in packets.
	MeanPkts float64 `json:"mean_pkts"`
	// Size is the UDP payload per packet (bytes).
	Size int `json:"size"`
	// FlowRatePPS is each live flow's send rate.
	FlowRatePPS float64 `json:"flow_rate_pps"`
	// Ports spreads the population over that many server sockets.
	Ports int `json:"ports"`
}

// FaultSpec is one impairment window, resolved against the concrete
// testbed at run time (see buildFault).
type FaultSpec struct {
	// Kind names the fault: "link-loss", "link-jitter", "ring-shrink",
	// "core-stall", "core-offline", "kv-flaky", "noisy-neighbor".
	Kind string `json:"kind"`
	// AtMs is the window start in ms after warmup; ForMs its duration.
	AtMs  int `json:"at_ms"`
	ForMs int `json:"for_ms"`
	// Rate is the loss/fail probability or antagonist utilization.
	Rate float64 `json:"rate,omitempty"`
	// Amount is the kind-specific magnitude: jitter or KV latency in
	// microseconds, or the ring limit in slots.
	Amount int `json:"amount,omitempty"`
	// Cores are the server cores the fault targets (stall/offline/noisy).
	Cores []int `json:"cores,omitempty"`
}

// ReconfigSpec is one hot-reconfiguration window, resolved against the
// concrete testbed at run time (see reconfigSchedule): the runner
// translates it into internal/reconfig generation swaps on the server
// host, applied at deterministic effective times after warmup.
type ReconfigSpec struct {
	// Kind names the swap: "drain" (graceful drain of the server onto
	// the spare's standby twins, re-added ForMs later), "kernel-upgrade"
	// (cost-profile swap to 5.4; ForMs ignored), "rps-flip" (RPS
	// disabled at AtMs, re-enabled ForMs later), "crash" (the server
	// host fails abruptly at AtMs and reboots ForMs later; the failure
	// detector fails its containers over to the spare's standby twins
	// and re-admits the host after the reboot).
	Kind string `json:"kind"`
	// AtMs is the swap's effective time in ms after warmup; ForMs the
	// window until the reverse swap for drain/rps-flip, or the outage
	// length (crash → reboot) for crash.
	AtMs  int `json:"at_ms"`
	ForMs int `json:"for_ms,omitempty"`
}

// Scenario is one fully specified simulation configuration: topology,
// kernel/steering config, workload, and optional fault schedule. It is
// the unit the fuzzer generates, the oracles check, and the shrinker
// minimizes; the JSON encoding is the reproducer format.
type Scenario struct {
	Name string `json:"name,omitempty"`
	// Seed seeds the engine (and, for generated scenarios, records the
	// fuzz seed that produced it).
	Seed uint64 `json:"seed"`

	// Topology.
	Cores      int     `json:"cores"`
	LinkGbps   float64 `json:"link_gbps"`
	MTU        int     `json:"mtu,omitempty"`
	Containers int     `json:"containers"`

	// Kernel / steering configuration.
	Kernel     string `json:"kernel,omitempty"`
	FalconCPUs []int  `json:"falcon_cpus,omitempty"`
	TwoChoice  bool   `json:"two_choice"`
	GROSplit   bool   `json:"gro_split"`
	AlwaysOn   bool   `json:"always_on,omitempty"`
	GRO        bool   `json:"gro"`
	InnerGRO   bool   `json:"inner_gro"`

	// Workload.
	AppCore  int `json:"app_core"`
	WarmupMs int `json:"warmup_ms"`
	WindowMs int `json:"window_ms"`

	// RxCache enables the ONCache-style RX decap fast path (per-core
	// flow caches) on both hosts. Part of scenario identity — the
	// transparency oracle compares cache-on against cache-off runs, so
	// the knob must distinguish their run-cache keys. Old reproducers
	// without the field parse as false (cache off), their pre-cache
	// behavior.
	RxCache bool `json:"rx_cache,omitempty"`

	Flows []FlowSpec `json:"flows"`
	// OpenLoop, when set, adds a churning open-loop flow population on
	// the first container pair (always overlay: the tail claims are
	// about the overlay datapath). Its sends count toward conservation
	// and its sockets toward delivery and latency percentiles.
	OpenLoop *OpenLoopSpec `json:"open_loop,omitempty"`
	Faults   []FaultSpec   `json:"faults,omitempty"`
	// Reconfigs schedules hot generation swaps during the window. A
	// drain additionally provisions the spare host with standby twins.
	Reconfigs []ReconfigSpec `json:"reconfigs,omitempty"`

	// Shards > 1 runs the scenario on a conservative PDES cluster
	// (internal/sim.Cluster) instead of the serial engine. Excluded from
	// the JSON encoding: it is an execution knob, not part of scenario
	// identity — results are byte-identical for every value, which the
	// shard-invariance tests assert over the whole corpus.
	Shards int `json:"-"`
}

// Warmup and Window convert the ms fields to engine time.
func (sc Scenario) Warmup() sim.Time { return sim.Time(sc.WarmupMs) * sim.Millisecond }
func (sc Scenario) Window() sim.Time { return sim.Time(sc.WindowMs) * sim.Millisecond }

// UDPOnly reports whether every flow is UDP (the precondition for the
// exact wire-conservation equation: TCP adds reverse-path ACKs and
// retransmits that the per-frame accounting deliberately excludes).
func (sc Scenario) UDPOnly() bool {
	for _, f := range sc.Flows {
		if f.Proto != "udp" {
			return false
		}
	}
	return true
}

// FixedRateOnly reports whether every flow is a fixed-rate UDP flow —
// the open-loop shape whose send schedule is identical across
// configurations (closed-loop flood adapts its rate to the datapath
// under test, so cross-mode packet-set comparison is meaningless).
func (sc Scenario) FixedRateOnly() bool {
	for _, f := range sc.Flows {
		if f.Proto != "udp" || f.RatePPS <= 0 {
			return false
		}
	}
	return true
}

// OverlayOnly reports whether every flow crosses the container overlay.
func (sc Scenario) OverlayOnly() bool {
	for _, f := range sc.Flows {
		if f.Ctr == 0 {
			return false
		}
	}
	return true
}

// HasDrain reports whether the reconfig schedule drains the server (the
// runner then provisions the spare host and twin sockets).
func (sc Scenario) HasDrain() bool {
	for _, rc := range sc.Reconfigs {
		if rc.Kind == "drain" {
			return true
		}
	}
	return false
}

// HasCrash reports whether the scenario crashes the server (the runner
// then provisions the spare host plus twin sockets, whose standby twins
// the failure detector fails the server over to).
func (sc Scenario) HasCrash() bool {
	for _, rc := range sc.Reconfigs {
		if rc.Kind == "crash" {
			return true
		}
	}
	return false
}

// validReconfigKinds is the closed set reconfigSchedule translates.
var validReconfigKinds = map[string]bool{
	"drain": true, "kernel-upgrade": true, "rps-flip": true, "crash": true,
}

// validFaultKinds is the closed set buildFault resolves.
var validFaultKinds = map[string]bool{
	"link-loss": true, "link-jitter": true, "ring-shrink": true,
	"core-stall": true, "core-offline": true, "kv-flaky": true,
	"noisy-neighbor": true,
}

// Validate rejects scenarios the harness cannot run (or that would run
// unboundedly). Generated scenarios are valid by construction; this
// guards hand-written and shrunk ones.
func (sc Scenario) Validate() error {
	if sc.Seed == 0 {
		return fmt.Errorf("scenario: seed must be non-zero")
	}
	if sc.Cores < MinCores || sc.Cores > MaxCores {
		return fmt.Errorf("scenario: cores %d outside [%d,%d]", sc.Cores, MinCores, MaxCores)
	}
	if sc.LinkGbps != 10 && sc.LinkGbps != 100 {
		return fmt.Errorf("scenario: link_gbps %v (want 10 or 100)", sc.LinkGbps)
	}
	if sc.MTU != 0 && (sc.MTU < 576 || sc.MTU > 9000) {
		return fmt.Errorf("scenario: mtu %d outside [576,9000]", sc.MTU)
	}
	if sc.Containers < 0 || sc.Containers > 4 {
		return fmt.Errorf("scenario: containers %d outside [0,4]", sc.Containers)
	}
	if sc.Kernel != "" && sc.Kernel != "5.4" && sc.Kernel != "linux-5.4" {
		return fmt.Errorf("scenario: unknown kernel %q", sc.Kernel)
	}
	for _, c := range sc.FalconCPUs {
		if c < 0 || c >= sc.Cores {
			return fmt.Errorf("scenario: falcon cpu %d outside machine (%d cores)", c, sc.Cores)
		}
	}
	if sc.AppCore < 0 || sc.AppCore >= sc.Cores {
		return fmt.Errorf("scenario: app core %d outside machine", sc.AppCore)
	}
	if sc.WarmupMs < 1 || sc.WarmupMs > MaxWarmpMs {
		return fmt.Errorf("scenario: warmup_ms %d outside [1,%d]", sc.WarmupMs, MaxWarmpMs)
	}
	if sc.WindowMs < 2 || sc.WindowMs > MaxWindow {
		return fmt.Errorf("scenario: window_ms %d outside [2,%d]", sc.WindowMs, MaxWindow)
	}
	if len(sc.Flows) == 0 || len(sc.Flows) > MaxFlows {
		return fmt.Errorf("scenario: %d flows outside [1,%d]", len(sc.Flows), MaxFlows)
	}
	for i, f := range sc.Flows {
		if f.Proto != "udp" && f.Proto != "tcp" {
			return fmt.Errorf("scenario: flow %d: unknown proto %q", i, f.Proto)
		}
		sizeCap := 65507 // max UDP datagram payload
		if f.Proto == "tcp" {
			sizeCap = 1 << 20 // message size, segmented by the transport
		}
		if f.Size < 16 || f.Size > sizeCap {
			return fmt.Errorf("scenario: flow %d: size %d outside [16,%d]", i, f.Size, sizeCap)
		}
		if f.RatePPS < 0 || f.RatePPS > 2e6 {
			return fmt.Errorf("scenario: flow %d: rate %v outside [0,2M]", i, f.RatePPS)
		}
		if f.Ctr < 0 || f.Ctr > sc.Containers {
			return fmt.Errorf("scenario: flow %d: ctr %d outside [0,%d]", i, f.Ctr, sc.Containers)
		}
		if f.SendCore < 0 || f.SendCore >= sc.Cores {
			return fmt.Errorf("scenario: flow %d: send core %d outside machine", i, f.SendCore)
		}
	}
	if ol := sc.OpenLoop; ol != nil {
		if ol.Dist != "pareto" && ol.Dist != "lognormal" {
			return fmt.Errorf("scenario: open_loop: unknown dist %q", ol.Dist)
		}
		if ol.Arrivals != "poisson" && ol.Arrivals != "mmpp" {
			return fmt.Errorf("scenario: open_loop: unknown arrivals %q", ol.Arrivals)
		}
		if ol.FlowsPerSec < 500 || ol.FlowsPerSec > 50_000 {
			return fmt.Errorf("scenario: open_loop: flows_per_sec %v outside [500,50000]", ol.FlowsPerSec)
		}
		if ol.MeanPkts < 2 || ol.MeanPkts > 64 {
			return fmt.Errorf("scenario: open_loop: mean_pkts %v outside [2,64]", ol.MeanPkts)
		}
		if ol.Size < 16 || ol.Size > 1472 {
			return fmt.Errorf("scenario: open_loop: size %d outside [16,1472]", ol.Size)
		}
		if ol.FlowRatePPS < 1000 || ol.FlowRatePPS > 200_000 {
			return fmt.Errorf("scenario: open_loop: flow_rate_pps %v outside [1k,200k]", ol.FlowRatePPS)
		}
		if ol.Ports < 1 || ol.Ports > 4 {
			return fmt.Errorf("scenario: open_loop: ports %d outside [1,4]", ol.Ports)
		}
		if sc.Containers < 1 {
			return fmt.Errorf("scenario: open_loop requires containers >= 1")
		}
		// Bound the population's long-run offered packet rate so a fuzz
		// run cannot blow the event budget.
		if offered := ol.FlowsPerSec * ol.MeanPkts; offered > 1.5e6 {
			return fmt.Errorf("scenario: open_loop: offered %v pps above 1.5M", offered)
		}
	}
	if len(sc.Faults) > MaxFaults {
		return fmt.Errorf("scenario: %d faults (max %d)", len(sc.Faults), MaxFaults)
	}
	for i, ft := range sc.Faults {
		if !validFaultKinds[ft.Kind] {
			return fmt.Errorf("scenario: fault %d: unknown kind %q", i, ft.Kind)
		}
		if ft.AtMs < 0 || ft.ForMs < 1 || ft.AtMs+ft.ForMs > sc.WindowMs {
			return fmt.Errorf("scenario: fault %d: window [%d,%d)ms outside the %dms measurement window",
				i, ft.AtMs, ft.AtMs+ft.ForMs, sc.WindowMs)
		}
		if ft.Rate < 0 || ft.Rate > 1 {
			return fmt.Errorf("scenario: fault %d: rate %v outside [0,1]", i, ft.Rate)
		}
		for _, c := range ft.Cores {
			if c < 0 || c >= sc.Cores {
				return fmt.Errorf("scenario: fault %d: core %d outside machine", i, c)
			}
		}
	}
	if len(sc.Reconfigs) > MaxReconfigs {
		return fmt.Errorf("scenario: %d reconfigs (max %d)", len(sc.Reconfigs), MaxReconfigs)
	}
	drains, crashes := 0, 0
	for i, rc := range sc.Reconfigs {
		if !validReconfigKinds[rc.Kind] {
			return fmt.Errorf("scenario: reconfig %d: unknown kind %q", i, rc.Kind)
		}
		if rc.Kind == "kernel-upgrade" {
			if rc.AtMs < 0 || rc.AtMs > sc.WindowMs {
				return fmt.Errorf("scenario: reconfig %d: at_ms %d outside the %dms window",
					i, rc.AtMs, sc.WindowMs)
			}
			continue
		}
		if rc.AtMs < 0 || rc.ForMs < 1 || rc.AtMs+rc.ForMs > sc.WindowMs {
			return fmt.Errorf("scenario: reconfig %d: window [%d,%d)ms outside the %dms measurement window",
				i, rc.AtMs, rc.AtMs+rc.ForMs, sc.WindowMs)
		}
		switch rc.Kind {
		case "drain":
			drains++
			// A drain remaps every server container onto the spare's
			// standby twins: it needs overlay UDP flows only (TCP state
			// and host-networking sockets cannot migrate) and at least
			// one container to remap.
			if !sc.UDPOnly() || !sc.OverlayOnly() || sc.Containers < 1 {
				return fmt.Errorf("scenario: reconfig %d: drain requires overlay-only UDP flows and containers >= 1", i)
			}
		case "crash":
			crashes++
			// A crash fails the server over onto the spare's standby
			// twins: the same migration preconditions as drain apply.
			if !sc.UDPOnly() || !sc.OverlayOnly() || sc.Containers < 1 {
				return fmt.Errorf("scenario: reconfig %d: crash requires overlay-only UDP flows and containers >= 1", i)
			}
		}
	}
	if drains > 1 {
		return fmt.Errorf("scenario: %d drains (max 1)", drains)
	}
	// A crash stays the only reconfig: its fail-over and a drain would
	// both move the server's containers onto the spare's twins, and the
	// crash-recovery oracle reads delivery across the crash alone.
	if crashes > 0 && len(sc.Reconfigs) != 1 {
		return fmt.Errorf("scenario: a crash must be the only reconfig (got %d)", len(sc.Reconfigs))
	}
	return nil
}

// JSON renders the scenario compactly (the oracle run cache's key).
func (sc Scenario) JSON() string {
	b, err := json.Marshal(sc)
	if err != nil {
		panic(err) // static struct: cannot fail
	}
	return string(b)
}

// FromJSON parses and validates a scenario.
func FromJSON(data []byte) (Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return sc, fmt.Errorf("scenario: %w", err)
	}
	return sc, sc.Validate()
}

// LoadFile reads a scenario file and parses it with Parse.
func LoadFile(path string) (Scenario, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, nil, err
	}
	return Parse(data)
}

// Parse reads a scenario file's contents: either a bare Scenario or a
// reproducer (see Reproducer). It returns the scenario plus the oracle
// names the file asks to check (nil: all applicable).
func Parse(data []byte) (Scenario, []string, error) {
	var rep Reproducer
	if err := json.Unmarshal(data, &rep); err == nil && rep.Magic == ReproMagic {
		return rep.Scenario, rep.Oracles(), rep.Scenario.Validate()
	}
	sc, err := FromJSON(data)
	return sc, nil, err
}
