package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"falcon/internal/audit"
	"falcon/internal/experiments"
	"falcon/internal/reconfig"
)

// chdirTemp moves the test into a temp dir (worker panics drop dump
// files into the cwd) and restores the original on cleanup.
func chdirTemp(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	return dir
}

// TestRunnerSurvivesPanic pins the hardened runner contract: a
// panicking experiment (here an audit selftest that aborts by design)
// must not take down the process or the remaining experiments — its
// failure is counted, its dump written, and every healthy experiment
// still renders.
func TestRunnerSurvivesPanic(t *testing.T) {
	chdirTemp(t)
	var exps []experiments.Experiment
	for _, id := range []string{"audit-leak", "fig4"} {
		e, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	var out bytes.Buffer
	failures := runExperiments(exps, experiments.Options{Quick: true, Seed: 1}, &out)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1", failures)
	}
	if !strings.Contains(out.String(), "### fig4") {
		t.Fatal("healthy experiment's output lost when a sibling panicked")
	}
	if strings.Contains(out.String(), "audit-leak —") {
		t.Fatal("failed experiment still rendered tables")
	}
	if _, err := os.Stat("falcon-audit-audit-leak.dump"); err != nil {
		t.Fatalf("audit abort did not write its replay dump: %v", err)
	}
}

// TestScheduleFlagsRejectMalformedJSON pins the -reconfig/-crash flag
// contract: any malformed input — missing file, broken JSON, or a
// schedule that fails validation — produces one single-line error (the
// caller prints it and exits nonzero) and never panics; valid files
// load into the options.
func TestScheduleFlagsRejectMalformedJSON(t *testing.T) {
	dir := chdirTemp(t)
	write := func(name, body string) string {
		t.Helper()
		p := dir + "/" + name
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name                 string
		reconfig, crash      string
		wantErr              bool
		wantSched, wantCrash bool
	}{
		{name: "no-flags"},
		{name: "reconfig-missing-file", reconfig: dir + "/nope.json", wantErr: true},
		{name: "crash-missing-file", crash: dir + "/nope.json", wantErr: true},
		{name: "reconfig-broken-json", reconfig: write("r1.json", "{"), wantErr: true},
		{name: "crash-broken-json", crash: write("c1.json", `{"crashes":[`), wantErr: true},
		{name: "reconfig-unknown-kind",
			reconfig: write("r2.json", `{"actions":[{"kind":"warp","at_ms":0,"host":"h"}]}`), wantErr: true},
		{name: "reconfig-wrong-shape", reconfig: write("r3.json", `[1,2,3]`), wantErr: true},
		{name: "reconfig-unknown-kernel",
			reconfig: write("r4.json", `{"actions":[{"kind":"kernel-upgrade","at_ms":1,"host":"server","kernel":"linux-5.10"}]}`), wantErr: true},
		{name: "crash-empty-schedule", crash: write("c2.json", `{"crashes":[]}`), wantErr: true},
		{name: "crash-reboot-before-crash",
			crash: write("c3.json", `{"crashes":[{"host":"server","at_ms":5,"reboot_ms":2}]}`), wantErr: true},
		{name: "crash-double-crash",
			crash: write("c4.json", `{"crashes":[{"host":"server","at_ms":1},{"host":"server","at_ms":3}]}`), wantErr: true},
		{name: "crash-wrong-shape", crash: write("c5.json", `"boom"`), wantErr: true},
		{name: "both-valid",
			reconfig:  write("r-ok.json", `{"actions":[{"kind":"kernel-upgrade","at_ms":1,"host":"server","kernel":"linux-5.4"}]}`),
			crash:     write("c-ok.json", `{"crashes":[{"host":"server","at_ms":2,"reboot_ms":6}]}`),
			wantSched: true, wantCrash: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flag load panicked on user input: %v", r)
				}
			}()
			var opt experiments.Options
			err := loadScheduleFlags(&opt, tc.reconfig, tc.crash)
			if tc.wantErr {
				if err == nil {
					t.Fatal("malformed input accepted")
				}
				if strings.ContainsRune(strings.TrimSuffix(err.Error(), "\n"), '\n') {
					t.Fatalf("error is not one line: %q", err.Error())
				}
				return
			}
			if err != nil {
				t.Fatalf("valid input rejected: %v", err)
			}
			if (opt.Reconfig != nil) != tc.wantSched || (opt.Crash != nil) != tc.wantCrash {
				t.Fatalf("loaded reconfig=%v crash=%v, want %v/%v",
					opt.Reconfig != nil, opt.Crash != nil, tc.wantSched, tc.wantCrash)
			}
		})
	}
}

// TestReplayReproducesDump closes the loop the dump header promises:
// -replay on a just-written dump re-runs the exact experiment and exits
// nonzero because the deterministic failure fires again.
func TestReplayReproducesDump(t *testing.T) {
	chdirTemp(t)
	e, _ := experiments.ByID("audit-double-free")
	var out bytes.Buffer
	if f := runExperiments([]experiments.Experiment{e}, experiments.Options{Quick: true, Seed: 1}, &out); f != 1 {
		t.Fatalf("selftest did not fail (failures=%d)", f)
	}
	if code := runReplay("falcon-audit-audit-double-free.dump", 0); code != 1 {
		t.Fatalf("replay exit %d, want 1 (reproduced)", code)
	}
}

// TestReplayRejectsGarbage keeps -replay's error paths crisp: a missing
// file and a non-dump file both exit 2 without running anything.
func TestReplayRejectsGarbage(t *testing.T) {
	dir := chdirTemp(t)
	if code := runReplay("does-not-exist.dump", 0); code != 2 {
		t.Fatalf("missing dump: exit %d, want 2", code)
	}
	bad := dir + "/not-a-dump"
	os.WriteFile(bad, []byte("hello\n"), 0o644)
	if code := runReplay(bad, 0); code != 2 {
		t.Fatalf("garbage dump: exit %d, want 2", code)
	}
}

// TestReplayRestoresRunOptions: everything that shapes an experiment's
// output — the RX cache and both schedule files included — survives the
// trip through a dump header into the replay's options.
func TestReplayRestoresRunOptions(t *testing.T) {
	on := true
	opt := experiments.Options{
		Quick: true, Seed: 3, Kernel: "5.4", RxCache: true,
		Reconfig: &reconfig.Schedule{Actions: []reconfig.Action{
			{Kind: reconfig.KindRPSFlip, AtMs: 1, Host: "server", Enable: &on}}},
		Crash: &reconfig.CrashSchedule{Crashes: []reconfig.CrashEvent{
			{Host: "server", AtMs: 2, RebootMs: 5}}},
	}
	var b bytes.Buffer
	audit.WriteDump(&b, dumpInfo("abl-crash", opt), nil, nil)
	info, err := audit.ParseDumpHeader(&b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayOptions(info, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := opt
	want.Audit, want.MaxEvents = true, 9
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay options %+v, want %+v", got, want)
	}
	info.Crash = `{"crashes":[]}`
	if _, err := replayOptions(info, 0); err == nil {
		t.Fatal("invalid crash schedule in a dump header accepted")
	}
}
