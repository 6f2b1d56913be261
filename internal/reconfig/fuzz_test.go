package reconfig_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"falcon/internal/reconfig"
)

// FuzzScheduleJSON checks the -reconfig parser: FromJSON never panics,
// and a schedule it accepts marshals to JSON that it accepts again,
// marshalling to the same bytes. The corpus under testdata/fuzz holds
// abl-reconfig's built-in Falcon-mode schedule (quick windows),
// marshalled, which uses every schedulable kind.
func FuzzScheduleJSON(f *testing.F) {
	f.Add([]byte(`{"actions":[{"kind":"drain","at_ms":1,"host":"server","to":"spare","transit_us":200},{"kind":"add","at_ms":2,"host":"server"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := reconfig.FromJSON(data)
		if err != nil {
			return
		}
		roundTrip(t, s, func(b []byte) (any, error) { return reconfig.FromJSON(b) })
	})
}

// FuzzCrashJSON checks the -crash parser the same way, seeded with the
// pinned abl-crash partition schedules.
func FuzzCrashJSON(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "experiments", "testdata", "abl-crash-*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no abl-crash schedules to seed from (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := reconfig.CrashFromJSON(data)
		if err != nil {
			return
		}
		roundTrip(t, s, func(b []byte) (any, error) { return reconfig.CrashFromJSON(b) })
	})
}

// roundTrip marshals an accepted schedule, parses it back with parse,
// and requires the result to be accepted and to marshal identically.
func roundTrip(t *testing.T, s any, parse func([]byte) (any, error)) {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal accepted schedule: %v", err)
	}
	s2, err := parse(b)
	if err != nil {
		t.Fatalf("re-parse of %s: %v", b, err)
	}
	b2, err := json.Marshal(s2)
	if err != nil || !bytes.Equal(b, b2) {
		t.Fatalf("round trip changed the schedule:\n%s\n%s (%v)", b, b2, err)
	}
}
