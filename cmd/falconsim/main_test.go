package main

import (
	"bytes"
	"testing"

	"falcon/internal/experiments"
)

// TestRunnerOutputIdentical pins the runner's rendering contract: stdout
// is byte-identical across invocations and across engine choices —
// serial, a forced shard count, and -shards auto (each bed's layout from
// sim.AutoShards: one shard per host for mesh8, serial for the testbeds)
// must all render the same tables.
func TestRunnerOutputIdentical(t *testing.T) {
	var exps []experiments.Experiment
	for _, id := range []string{"fig4", "fig2d", "mesh8"} {
		e, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	base := experiments.Options{Quick: true, Seed: 1}
	var serial bytes.Buffer
	if failures := runExperiments(exps, base, &serial); failures != 0 {
		t.Fatalf("serial run reported %d failures", failures)
	}
	if serial.Len() == 0 {
		t.Fatal("no output")
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"shards-4", 4},
		{"shards-auto", experiments.ShardsAuto},
	} {
		opt := base
		opt.Shards = tc.shards
		var got bytes.Buffer
		if failures := runExperiments(exps, opt, &got); failures != 0 {
			t.Fatalf("%s run reported %d failures", tc.name, failures)
		}
		if !bytes.Equal(serial.Bytes(), got.Bytes()) {
			t.Fatalf("%s output differs from serial run:\n--- serial ---\n%s\n--- %s ---\n%s",
				tc.name, serial.String(), tc.name, got.String())
		}
	}
}

// TestParseShards covers the -shards flag grammar.
func TestParseShards(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1", 1, false},
		{"4", 4, false},
		{"auto", experiments.ShardsAuto, false},
		{"-2", 0, true},
		{"many", 0, true},
	} {
		got, err := parseShards(tc.in)
		if tc.err != (err != nil) {
			t.Errorf("parseShards(%q): err = %v, want err %t", tc.in, err, tc.err)
			continue
		}
		if !tc.err && got != tc.want {
			t.Errorf("parseShards(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestCheckKernel covers the -kernel flag grammar: the names a cost
// profile answers to pass, anything else is an error rather than a
// silent 4.19 run.
func TestCheckKernel(t *testing.T) {
	for _, tc := range []struct {
		in  string
		err bool
	}{
		{"", false},
		{"4.19", false},
		{"linux-4.19", false},
		{"5.4", false},
		{"linux-5.4", false},
		{"5.10", true},
		{"linux-5.10", true},
	} {
		if err := checkKernel(tc.in); tc.err != (err != nil) {
			t.Errorf("checkKernel(%q): err = %v, want err %t", tc.in, err, tc.err)
		}
	}
}
