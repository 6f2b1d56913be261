package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse checks the -scenario file parser on bare scenarios and
// reproducers: Parse never panics, and a scenario it accepts renders to
// JSON that it accepts again as the same scenario. Seeded with every
// scenario under testdata, bare and wrapped in a reproducer.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no scenarios to seed from (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		sc, err := FromJSON(data)
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		rep, err := json.Marshal(Reproducer{Magic: ReproMagic, Oracle: "conservation", Seed: 1, Scenario: sc})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rep)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, _, err := Parse(data)
		if err != nil {
			return
		}
		js := sc.JSON()
		sc2, names, err := Parse([]byte(js))
		if err != nil {
			t.Fatalf("re-parse of %s: %v", js, err)
		}
		if names != nil || sc2.JSON() != js {
			t.Fatalf("round trip changed the scenario:\n%s\n%s (oracles %v)", js, sc2.JSON(), names)
		}
	})
}
