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

// TestScheduleFlagsRejectMalformedJSON pins the -reconfig flag
// contract for generation, crash and partition actions alike: any
// malformed input — missing file, broken JSON, or a schedule that fails
// validation — produces one single-line error (the caller prints it and
// exits nonzero) and never panics; a valid file loads into the options.
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
		name, path string
		wantErr    bool
	}{
		{name: "no-flags"},
		{name: "reconfig-missing-file", path: dir + "/nope.json", wantErr: true},
		{name: "crash-missing-file", path: dir + "/crash.json", wantErr: true},
		{name: "reconfig-broken-json", path: write("r1.json", "{"), wantErr: true},
		{name: "crash-broken-json", path: write("c1.json", `{"actions":[{"kind":"crash"`), wantErr: true},
		{name: "reconfig-unknown-kind",
			path: write("r2.json", `{"actions":[{"kind":"warp","at_ms":0,"host":"h"}]}`), wantErr: true},
		{name: "reconfig-wrong-shape", path: write("r3.json", `[1,2,3]`), wantErr: true},
		{name: "reconfig-unknown-kernel",
			path: write("r4.json", `{"actions":[{"kind":"kernel-upgrade","at_ms":1,"host":"server","kernel":"linux-5.10"}]}`), wantErr: true},
		// An empty schedule in the retired crash-file shape must not load
		// as an empty action list.
		{name: "crash-empty-schedule", path: write("c2.json", `{"crashes":[]}`), wantErr: true},
		{name: "crash-reboot-before-crash",
			path: write("c3.json", `{"actions":[{"kind":"crash","at_ms":5,"host":"server","to":"spare","until_ms":2}]}`), wantErr: true},
		{name: "crash-double-crash",
			path: write("c4.json", `{"actions":[{"kind":"crash","at_ms":1,"host":"server","to":"spare"},{"kind":"crash","at_ms":3,"host":"server","to":"spare"}]}`), wantErr: true},
		{name: "crash-wrong-shape", path: write("c5.json", `"boom"`), wantErr: true},
		// A generation action and a crash action, both valid.
		{name: "both-valid",
			path: write("ok.json", `{"actions":[{"kind":"kernel-upgrade","at_ms":1,"host":"server","kernel":"linux-5.4"},{"kind":"crash","at_ms":2,"host":"server","to":"spare","until_ms":6}]}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flag load panicked on user input: %v", r)
				}
			}()
			var opt experiments.Options
			err := loadScheduleFlag(&opt, tc.path)
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
			if (opt.Reconfig != nil) != (tc.path != "") {
				t.Fatalf("loaded schedule %v for path %q", opt.Reconfig, tc.path)
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
// output — the RX cache and a schedule holding a crash, a partition and
// a drain included — survives the trip through a dump header into the
// replay's options.
func TestReplayRestoresRunOptions(t *testing.T) {
	opt := experiments.Options{
		Quick: true, Seed: 3, Kernel: "5.4", RxCache: true,
		Reconfig: &reconfig.Schedule{Actions: []reconfig.Action{
			{Kind: reconfig.KindPartition, AtMs: 1, Host: "client", UntilMs: 12},
			{Kind: reconfig.KindCrash, AtMs: 2, Host: "server", To: "spare", UntilMs: 5},
			{Kind: reconfig.KindDrain, AtMs: 7, Host: "client", To: "spare", TransitUs: 200}}},
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
	info.Reconfig = `{"actions":[{"kind":"crash","at_ms":2,"host":"server"}]}`
	if _, err := replayOptions(info, 0); err == nil {
		t.Fatal("invalid crash schedule in a dump header accepted")
	}
}
