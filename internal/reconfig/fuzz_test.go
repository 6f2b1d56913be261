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
// marshalling to the same bytes. The seeds are a drain/add pair and the
// pinned abl-crash partition schedules; the corpus under testdata/fuzz
// holds abl-reconfig's built-in Falcon-mode schedule (quick windows),
// marshalled, which uses every generation kind.
func FuzzScheduleJSON(f *testing.F) {
	f.Add([]byte(`{"actions":[{"kind":"drain","at_ms":1,"host":"server","to":"spare","transit_us":200},{"kind":"add","at_ms":2,"host":"server"}]}`))
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
		s, err := reconfig.FromJSON(data)
		if err != nil {
			return
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal accepted schedule: %v", err)
		}
		s2, err := reconfig.FromJSON(b)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", b, err)
		}
		b2, err := json.Marshal(s2)
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("round trip changed the schedule:\n%s\n%s (%v)", b, b2, err)
		}
	})
}
