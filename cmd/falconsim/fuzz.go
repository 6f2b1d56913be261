package main

import (
	"fmt"
	"os"
	"strings"

	falconcore "falcon/internal/core"
	"falcon/internal/scenario"
)

// runFuzz drives one fuzz campaign: -seeds scenarios from -fuzz-seed,
// each checked against the oracle battery, violations shrunk and
// written as reproducers under -repro-dir. Exit 0 when every seed is
// clean, 1 on findings, 2 on a configuration error.
func runFuzz(opt scenario.FuzzOptions) int {
	opt.Log = os.Stderr
	failures, err := scenario.Fuzz(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
		return 2
	}
	if len(failures) == 0 {
		fmt.Printf("fuzz: %d seeds clean\n", opt.Seeds)
		return 0
	}
	fmt.Printf("fuzz: %d finding(s) in %d seeds\n", len(failures), opt.Seeds)
	for _, f := range failures {
		fmt.Printf("  seed %-4d [%s] %s\n", f.Seed, f.Violation.Oracle, firstLine(f.Violation.Detail))
		if f.ReproPath != "" {
			fmt.Printf("    reproducer: %s\n", f.ReproPath)
		}
	}
	return 1
}

// runScenario replays one scenario or reproducer file: the pinned
// oracle for a reproducer, the whole applicable battery for a bare
// scenario. Exit 1 when the violation reproduces (the expected outcome
// for a genuine reproducer), 0 when the run is clean now. shards > 1
// replays on a PDES cluster — verdicts are byte-identical to serial, so
// this is a determinism cross-check, not a different test.
func runScenario(path string, shards int) int {
	sc, names, err := scenario.LoadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
		return 2
	}
	sc.Shards = shards
	vs, err := scenario.Check(sc, names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "falconsim: %v\n", err)
		return 2
	}
	if len(vs) == 0 {
		fmt.Fprintf(os.Stderr, "falconsim: scenario replay completed clean — failure did not reproduce\n")
		return 0
	}
	for _, v := range vs {
		fmt.Fprintf(os.Stderr, "falconsim: REPRODUCED: %s\n", v)
	}
	return 1
}

// installDefect seeds a known datapath defect for fuzzer self-tests:
// proof that the oracle battery catches a real bug, and the knob a
// reproducer needs to replay such a finding.
func installDefect(name string) int {
	switch name {
	case "drop-falcon-cpu":
		// The classic off-by-one steering bug: the placement mask loses
		// its last CPU, so one parallel core silently never receives
		// softirqs (and a 1-CPU config divides by zero).
		falconcore.SeedPlacementDefect(func(cpus []int) []int {
			return cpus[:len(cpus)-1]
		})
	default:
		fmt.Fprintf(os.Stderr, "falconsim: unknown -fuzz-defect %q (have: drop-falcon-cpu)\n", name)
		return 2
	}
	return 0
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
