package scenario

import "fmt"

// shrinkBudget bounds how many oracle re-checks one shrink in a fuzz
// campaign may spend. Each check is a handful of simulation runs, so the
// budget is the real wall-clock knob.
const shrinkBudget = 60

// Shrink greedily minimizes a violating scenario: it tries one
// structural reduction at a time (drop a flow, drop a fault, halve the
// window, shed cores/containers/config), keeps any candidate that still
// fails the same oracle, and repeats until no reduction helps or the
// check budget is spent. Returns the smallest still-failing scenario
// and the number of checks used.
//
// First-improvement greedy is deliberate: oracle checks dominate cost,
// and re-scanning from the strongest reductions after every success
// converges in a few passes on these small scenarios.
func Shrink(sc Scenario, oracleName string, budget int) (Scenario, int) {
	oracles, err := ByName([]string{oracleName})
	if err != nil {
		return sc, 0
	}
	o := oracles[0]
	stillFails := func(cand Scenario) bool {
		if cand.Validate() != nil || !o.Applies(cand) {
			return false
		}
		return CheckOracle(o, NewCtx(cand)) != nil
	}

	checks := 0
	for {
		improved := false
		for _, cand := range mutations(sc) {
			if checks >= budget {
				return sc, checks
			}
			checks++
			if stillFails(cand) {
				sc = cand
				improved = true
				break // restart from the strongest reductions
			}
		}
		if !improved {
			return sc, checks
		}
	}
}

// mutations enumerates single-step reductions of sc, strongest first.
// Every candidate is strictly "smaller": fewer moving parts, shorter
// windows, or fewer enabled features.
func mutations(sc Scenario) []Scenario {
	var out []Scenario
	add := func(m Scenario) { out = append(out, m) }

	// Drop whole flows and faults first — the biggest simplifications.
	if len(sc.Flows) > 1 {
		for i := range sc.Flows {
			m := sc
			m.Flows = append(append([]FlowSpec(nil), sc.Flows[:i]...), sc.Flows[i+1:]...)
			add(m)
		}
	}
	if sc.OpenLoop != nil {
		m := sc
		m.OpenLoop = nil
		add(m)
	}
	for i := range sc.Faults {
		m := sc
		m.Faults = append(append([]FaultSpec(nil), sc.Faults[:i]...), sc.Faults[i+1:]...)
		add(m)
	}
	for i := range sc.Reconfigs {
		m := sc
		m.Reconfigs = append(append([]ReconfigSpec(nil), sc.Reconfigs[:i]...), sc.Reconfigs[i+1:]...)
		add(m)
	}

	// Shorter run.
	if sc.WindowMs > 2 {
		m := sc
		m.WindowMs = max(2, sc.WindowMs/2)
		m = clampReconfigs(clampFaults(m))
		add(m)
	}
	if sc.WarmupMs > 1 {
		m := sc
		m.WarmupMs = sc.WarmupMs / 2
		add(m)
	}

	// Smaller topology. Cores may only shrink to just above the highest
	// core any part of the scenario references.
	if floor := minCoresFor(sc); sc.Cores-4 >= floor {
		m := sc
		m.Cores = sc.Cores - 4
		add(m)
	}
	if maxCtr := maxCtrUsed(sc); sc.Containers > maxCtr && sc.Containers > 1 {
		m := sc
		m.Containers = max(1, maxCtr)
		add(m)
	}
	if n := len(sc.FalconCPUs); n > 1 {
		m := sc
		m.FalconCPUs = append([]int(nil), sc.FalconCPUs[:n-1]...)
		if !faultCoresOK(m) {
			// A fault targets the dropped CPU; retarget it too.
			m = retargetFaults(m)
		}
		add(m)
	}

	// Smaller workload parameters.
	for i, f := range sc.Flows {
		if f.Size > 16 {
			m := sc
			m.Flows = append([]FlowSpec(nil), sc.Flows...)
			m.Flows[i].Size = max(16, f.Size/2)
			add(m)
		}
		if f.RatePPS > 20_000 {
			m := sc
			m.Flows = append([]FlowSpec(nil), sc.Flows...)
			m.Flows[i].RatePPS = f.RatePPS / 2
			add(m)
		}
	}

	// Simpler configuration: one knob at a time toward the zero value.
	if sc.LinkGbps == 100 {
		m := sc
		m.LinkGbps = 10
		add(m)
	}
	if sc.MTU != 0 {
		m := sc
		m.MTU = 0
		add(m)
	}
	if sc.Kernel != "" {
		m := sc
		m.Kernel = ""
		add(m)
	}
	for _, knob := range []struct {
		on  bool
		set func(*Scenario)
	}{
		{sc.RxCache, func(m *Scenario) { m.RxCache = false }},
		{sc.InnerGRO, func(m *Scenario) { m.InnerGRO = false }},
		{sc.GRO, func(m *Scenario) { m.GRO = false }},
		{sc.AlwaysOn, func(m *Scenario) { m.AlwaysOn = false }},
		{sc.GROSplit, func(m *Scenario) { m.GROSplit = false }},
		{sc.TwoChoice, func(m *Scenario) { m.TwoChoice = false }},
	} {
		if knob.on {
			m := sc
			knob.set(&m)
			add(m)
		}
	}
	return out
}

// clampReconfigs drops reconfig windows that no longer fit a shrunken
// measurement window.
func clampReconfigs(sc Scenario) Scenario {
	var kept []ReconfigSpec
	for _, rc := range sc.Reconfigs {
		if rc.AtMs+rc.ForMs <= sc.WindowMs {
			kept = append(kept, rc)
		}
	}
	sc.Reconfigs = kept
	return sc
}

// clampFaults pulls fault windows back inside a shrunken measurement
// window (dropping any that no longer fit).
func clampFaults(sc Scenario) Scenario {
	var kept []FaultSpec
	for _, ft := range sc.Faults {
		if ft.AtMs+ft.ForMs <= sc.WindowMs {
			kept = append(kept, ft)
		}
	}
	sc.Faults = kept
	return sc
}

// minCoresFor returns the smallest legal core count for the scenario.
func minCoresFor(sc Scenario) int {
	hi := sc.AppCore
	for _, c := range sc.FalconCPUs {
		if c > hi {
			hi = c
		}
	}
	for _, f := range sc.Flows {
		if f.SendCore > hi {
			hi = f.SendCore
		}
	}
	for _, ft := range sc.Faults {
		for _, c := range ft.Cores {
			if c > hi {
				hi = c
			}
		}
	}
	return max(MinCores, hi+1)
}

func maxCtrUsed(sc Scenario) int {
	hi := 0
	for _, f := range sc.Flows {
		if f.Ctr > hi {
			hi = f.Ctr
		}
	}
	return hi
}

// faultCoresOK reports whether every core-targeting fault still points
// at a FALCON_CPU of the scenario.
func faultCoresOK(sc Scenario) bool {
	in := make(map[int]bool, len(sc.FalconCPUs))
	for _, c := range sc.FalconCPUs {
		in[c] = true
	}
	for _, ft := range sc.Faults {
		if ft.Kind != "core-stall" && ft.Kind != "core-offline" && ft.Kind != "noisy-neighbor" {
			continue
		}
		for _, c := range ft.Cores {
			if !in[c] {
				return false
			}
		}
	}
	return true
}

// retargetFaults points core-targeting faults at the (shrunken) falcon
// CPU set.
func retargetFaults(sc Scenario) Scenario {
	fts := append([]FaultSpec(nil), sc.Faults...)
	for i, ft := range fts {
		if ft.Kind == "core-stall" || ft.Kind == "core-offline" || ft.Kind == "noisy-neighbor" {
			fts[i].Cores = append([]int(nil), sc.FalconCPUs...)
			if ft.Kind != "noisy-neighbor" && len(fts[i].Cores) > 1 {
				fts[i].Cores = fts[i].Cores[:1]
			}
		}
	}
	sc.Faults = fts
	return sc
}

// ShrinkSummary describes how far a shrink got, for logs.
func ShrinkSummary(from, to Scenario, checks int) string {
	return fmt.Sprintf("shrunk: flows %d→%d, faults %d→%d, window %d→%dms, cores %d→%d (%d re-checks)",
		len(from.Flows), len(to.Flows), len(from.Faults), len(to.Faults),
		from.WindowMs, to.WindowMs, from.Cores, to.Cores, checks)
}
