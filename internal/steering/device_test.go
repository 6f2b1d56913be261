package steering

import (
	"testing"

	"falcon/internal/skb"
)

// Falcon's placement (Algorithm 1 line 20) is vanilla RPS steering fed
// a device-mixed hash: cpus[DeviceFlowHash(flowHash, ifindex) % n].
// These tests pin the three properties that construction must provide —
// stages of one flow spread across cores (what RPS alone cannot do),
// every (flow, device) pair stays pinned (in-order delivery per stage),
// and the mechanism degenerates to plain RPS when the device term is
// held fixed.

// firstChoice is Falcon's static placement for one stage of one flow.
func firstChoice(mask []int, flowHash uint32, ifindex int) int {
	return mask[skb.DeviceFlowHash(flowHash, ifindex)%uint32(len(mask))]
}

// flowHashFor builds a distinct flow hash per source port.
func flowHashFor(srcPort uint16) uint32 {
	return skb.FlowKey{SrcPort: srcPort, DstPort: 5001, Proto: 17}.Hash()
}

// The overlay's three stage devices: pNIC, VXLAN, veth.
var stageIfindexes = []int{1, 2, 3}

func TestDeviceAwareSpreadsStages(t *testing.T) {
	// The paper's core observation (Fig. 8): mixing the ifindex into the
	// hash gives each softirq stage of the same flow its own core. With
	// k cores in the mask, a flow whose three stages all collide onto
	// one core should be the exception, not the rule.
	cases := []struct {
		name string
		mask []int
		// minSpread is the fraction of flows whose stages must land on
		// at least two distinct cores.
		minSpread float64
	}{
		{"k2", []int{3, 4}, 0.60},
		{"k3", []int{3, 4, 5}, 0.75},
		{"k5", []int{3, 4, 5, 6, 7}, 0.85},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const flows = 500
			spread := 0
			for p := uint16(0); p < flows; p++ {
				h := flowHashFor(7000 + p)
				cores := map[int]bool{}
				for _, ifx := range stageIfindexes {
					cores[firstChoice(tc.mask, h, ifx)] = true
				}
				if len(cores) >= 2 {
					spread++
				}
			}
			if got := float64(spread) / flows; got < tc.minSpread {
				t.Fatalf("only %.0f%% of flows spread stages across cores, want >=%.0f%%",
					got*100, tc.minSpread*100)
			}
		})
	}
}

func TestDeviceAwarePerFlowStability(t *testing.T) {
	// A (flow, device) pair must always map to the same core: that pin
	// is what preserves per-stage in-order processing while the flow is
	// still parallelized across stages.
	masks := [][]int{{3}, {3, 4}, {3, 4, 5, 6}}
	for _, mask := range masks {
		for p := uint16(0); p < 50; p++ {
			h := flowHashFor(9000 + p)
			for _, ifx := range stageIfindexes {
				want := firstChoice(mask, h, ifx)
				for rep := 0; rep < 20; rep++ {
					if got := firstChoice(mask, h, ifx); got != want {
						t.Fatalf("mask %v flow %d if %d: placement flapped %d -> %d",
							mask, p, ifx, want, got)
					}
				}
			}
		}
	}
}

func TestDeviceAwareDistribution(t *testing.T) {
	// Across many flows and all three stage devices, placements must
	// cover every core in the mask near-uniformly (no core silently
	// excluded — the defect class the scenario fuzzer seeds with
	// -fuzz-defect drop-falcon-cpu).
	masks := [][]int{{3, 4}, {3, 4, 5}, {3, 4, 5, 6, 7}}
	for _, mask := range masks {
		counts := map[int]int{}
		total := 0
		for p := uint16(0); p < 2000; p++ {
			h := flowHashFor(p)
			for _, ifx := range stageIfindexes {
				counts[firstChoice(mask, h, ifx)]++
				total++
			}
		}
		if len(counts) != len(mask) {
			t.Fatalf("mask %v: placements hit %d cores, want %d", mask, len(counts), len(mask))
		}
		uniform := float64(total) / float64(len(mask))
		for core, n := range counts {
			if f := float64(n); f < 0.5*uniform || f > 1.5*uniform {
				t.Fatalf("mask %v: core %d got %d of %d placements (uniform %.0f)",
					mask, core, n, total, uniform)
			}
		}
	}
}

func TestVanillaRPSParity(t *testing.T) {
	// Vanilla RPS ignores the device: every stage of a flow maps to one
	// core (the serialization the paper fixes). And Falcon's placement
	// is exactly RPS's table lookup once the device-mixed hash is fed
	// in — same plumbing, different hash, per Section 4.1.
	mask := []int{1, 2, 3, 4}
	rps := RPS{CPUs: mask, Enabled: true}
	for p := uint16(0); p < 200; p++ {
		h := flowHashFor(4000 + p)
		want := rps.CPUFor(h, 0)
		for _, ifx := range stageIfindexes {
			if rps.CPUFor(h, 0) != want {
				t.Fatal("vanilla RPS moved a stage across cores")
			}
			dh := skb.DeviceFlowHash(h, ifx)
			if got, parity := firstChoice(mask, h, ifx), rps.CPUFor(dh, 0); got != parity {
				t.Fatalf("flow %d if %d: falcon placement %d != RPS-over-device-hash %d",
					p, ifx, got, parity)
			}
		}
	}
	// A single-CPU mask degenerates to vanilla pinning for every stage.
	single := []int{3}
	srps := RPS{CPUs: single, Enabled: true}
	for p := uint16(0); p < 50; p++ {
		h := flowHashFor(p)
		for _, ifx := range stageIfindexes {
			if firstChoice(single, h, ifx) != 3 || srps.CPUFor(h, 0) != 3 {
				t.Fatal("single-CPU mask did not pin to its core")
			}
		}
	}
}
