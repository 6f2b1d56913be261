package audit

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzDumpHeader checks the dump header two ways. An arbitrary header
// line must never panic the parser. A RunInfo written by WriteDump must
// parse back unchanged, whatever its quoted values hold; the experiment
// name is written unquoted, so it is only required to round-trip when it
// is a single token, as every experiment name is.
func FuzzDumpHeader(f *testing.F) {
	f.Add("fig10", int64(1), "", true, false, "")
	f.Add("abl-crash", int64(-3), "linux-5.4", false, true,
		`{"actions":[{"kind":"crash","at_ms":2,"host":"server","to":"spare","until_ms":4}]}`)
	f.Add("abl-reconfig", int64(7), "5.4", true, true,
		`{"actions":[{"kind":"drain","at_ms":1,"host":"tcp mtu mix"}]}`)
	f.Add(`exp="a b" seed=1`, int64(0), `"`, false, false, "\" x=\n")

	f.Fuzz(func(t *testing.T, exp string, seed int64, kernel string, quick, cache bool, reconfig string) {
		ParseDumpHeader(strings.NewReader(dumpMagic + " " + exp))

		if exp == "" || exp[0] == '"' || strings.IndexFunc(exp, unicode.IsSpace) >= 0 {
			return
		}
		info := RunInfo{Exp: exp, Seed: seed, Kernel: kernel, Quick: quick, Cache: cache, Reconfig: reconfig}
		var b strings.Builder
		WriteDump(&b, info, nil, nil)
		got, err := ParseDumpHeader(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("parse of %q: %v", b.String(), err)
		}
		if got != info {
			t.Fatalf("round trip of %q: want %+v got %+v", b.String(), info, got)
		}
	})
}
