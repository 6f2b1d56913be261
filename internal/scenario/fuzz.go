package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ReproMagic marks a reproducer file (the "falcon_fuzz" JSON field).
const ReproMagic = "v1"

// Reproducer is the one-command replay artifact the fuzzer emits for a
// shrunk violation: `falconsim -scenario <file>` re-checks exactly the
// embedded scenario against exactly the violated oracle.
type Reproducer struct {
	Magic    string   `json:"falcon_fuzz"`
	Oracle   string   `json:"oracle"`
	Seed     uint64   `json:"fuzz_seed"`
	Detail   string   `json:"detail"`
	Command  string   `json:"command"`
	Scenario Scenario `json:"scenario"`
}

// Oracles returns the oracle selection the reproducer pins (nil: all).
func (r Reproducer) Oracles() []string {
	if r.Oracle == "" {
		return nil
	}
	return []string{r.Oracle}
}

// Failure is one fuzz finding: the seed, the violation, the shrunk
// scenario, and where the reproducer was written.
type Failure struct {
	Seed      uint64
	Violation Violation
	Scenario  Scenario
	ReproPath string
}

// FuzzOptions configures one fuzz campaign.
type FuzzOptions struct {
	// Seeds is how many consecutive fuzz seeds to run (default 50),
	// starting at StartSeed (default 1).
	Seeds     int
	StartSeed uint64
	// Oracles restricts the battery (nil: all).
	Oracles []string
	// ReproDir receives reproducer files (default ".").
	ReproDir string
	// Workers runs seeds concurrently (each scenario run owns its
	// engine; runs share nothing but buffer pools). Default 1.
	Workers int
	// ExtraArgs is appended to the reproducer's replay command line
	// (e.g. the -fuzz-defect flag that must be active to reproduce).
	ExtraArgs string
	// Log receives per-seed progress lines (default: discarded).
	Log io.Writer
}

func (opt FuzzOptions) withDefaults() FuzzOptions {
	if opt.Seeds <= 0 {
		opt.Seeds = 50
	}
	if opt.StartSeed == 0 {
		opt.StartSeed = 1
	}
	if opt.ReproDir == "" {
		opt.ReproDir = "."
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	return opt
}

// Fuzz runs the campaign: for each seed it generates a scenario, checks
// every applicable oracle, and on the first violation shrinks the
// scenario and writes a reproducer. All seeds run to completion (one
// finding does not stop the campaign); findings come back in seed
// order.
func Fuzz(opt FuzzOptions) ([]Failure, error) {
	opt = opt.withDefaults()
	if _, err := ByName(opt.Oracles); err != nil {
		return nil, err
	}

	results := make([]chan seedResult, opt.Seeds)
	for i := range results {
		results[i] = make(chan seedResult, 1)
	}
	sem := make(chan struct{}, opt.Workers)
	for i := 0; i < opt.Seeds; i++ {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] <- fuzzOne(opt, opt.StartSeed+uint64(i))
		}(i)
	}

	var failures []Failure
	for i := 0; i < opt.Seeds; i++ {
		r := <-results[i]
		fmt.Fprint(opt.Log, r.log)
		if r.failure != nil {
			failures = append(failures, *r.failure)
		}
	}
	return failures, nil
}

// seedResult is one seed's transcript plus any finding.
type seedResult struct {
	log     string
	failure *Failure
}

// fuzzOne runs one seed end to end and returns its log transcript plus
// any finding.
func fuzzOne(opt FuzzOptions, seed uint64) (out seedResult) {
	sc := Generate(seed)
	if err := sc.Validate(); err != nil {
		// The generator emitted an invalid scenario: a bug in this
		// package, reported as a finding so CI surfaces it.
		out.failure = &Failure{Seed: seed,
			Violation: Violation{"generator", err.Error()}, Scenario: sc}
		out.log = fmt.Sprintf("seed %d: GENERATOR BUG: %v\n", seed, err)
		return
	}

	oracles, _ := ByName(opt.Oracles)
	c := NewCtx(sc)
	var checked []string
	for _, o := range oracles {
		if !o.Applies(sc) {
			continue
		}
		checked = append(checked, o.Name)
		v := CheckOracle(o, c)
		if v == nil {
			continue
		}
		min, checks := Shrink(sc, o.Name, shrinkBudget)
		note := "  " + ShrinkSummary(sc, min, checks) + "\n"
		// Re-derive the violation detail from the minimal scenario when
		// it still reproduces cleanly.
		if mv := CheckOracle(o, NewCtx(min)); mv != nil {
			v = mv
		}
		path, err := writeRepro(opt, seed, *v, min)
		if err != nil {
			note += fmt.Sprintf("  (writing reproducer: %v)\n", err)
		}
		out.failure = &Failure{Seed: seed, Violation: *v, Scenario: min, ReproPath: path}
		out.log = fmt.Sprintf("seed %d: FAIL [%s] %s\n%s  reproduce: %s\n",
			seed, v.Oracle, v.Detail, note, replayCommand(opt, path))
		return
	}
	out.log = fmt.Sprintf("seed %d: ok (%s)\n", seed, join(checked))
	return
}

func join(names []string) string {
	if len(names) == 0 {
		return "no applicable oracles"
	}
	s := names[0]
	for _, n := range names[1:] {
		s += "," + n
	}
	return s
}

func replayCommand(opt FuzzOptions, path string) string {
	cmd := "falconsim -scenario " + path
	if opt.ExtraArgs != "" {
		cmd += " " + opt.ExtraArgs
	}
	return cmd
}

// writeRepro emits the reproducer JSON for one finding.
func writeRepro(opt FuzzOptions, seed uint64, v Violation, sc Scenario) (string, error) {
	path := filepath.Join(opt.ReproDir, fmt.Sprintf("falcon-fuzz-%s-seed%d.json", v.Oracle, seed))
	rep := Reproducer{
		Magic: ReproMagic, Oracle: v.Oracle, Seed: seed, Detail: v.Detail,
		Command: replayCommand(opt, path), Scenario: sc,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return path, err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
