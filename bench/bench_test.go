package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"falcon/internal/cpu"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
)

// quick is the window the tests run every workload with.
const quick = 3 * sim.Millisecond

// TestSmoke runs every workload end to end and traced with a tiny window
// and checks that the printed metric names and units are exactly those
// BENCHMARK.json lists, with finite values.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []listed `json:"end_to_end"`
		PerLayer  []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, pass := range []struct {
			run  func(*workload, uint64, sim.Time, time.Duration, io.Writer) result
			want []listed
		}{{measure, spec.EndToEnd}, {traced, spec.PerLayer}} {
			res := pass.run(w, 1, quick, 0, io.Discard)
			if !res.correct || res.failed != 0 {
				t.Errorf("%s: checks failed", w.name)
			}
			var out bytes.Buffer
			if err := writeJSON(&out, res); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var printed struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(out.Bytes(), &printed); err != nil {
				t.Fatal(err)
			}
			if len(printed.Metrics) != len(pass.want) {
				t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", w.name, len(printed.Metrics), len(pass.want))
			}
			for _, m := range pass.want {
				got, ok := printed.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not printed", w.name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s unit %q, BENCHMARK.json %q", w.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestTracerOnlyObserves checks that a traced repetition simulates
// exactly what an untraced one does.
func TestTracerOnlyObserves(t *testing.T) {
	for _, w := range workloads {
		plain := runRep(w, 1, repOpts{window: quick})
		traced := runRep(w, 1, repOpts{window: quick, traced: true})
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: %v / %v", w.name, plain.err, traced.err)
		}
		a, b := endToEndOf(plain, quick), endToEndOf(traced, quick)
		for k, v := range a {
			if (k == "events_per_pkt" || strings.HasPrefix(k, "model_")) && b[k] != v {
				t.Errorf("%s: %s untraced %v, traced %v", w.name, k, v, b[k])
			}
		}
		if !sameModel(plain, traced) {
			t.Errorf("%s: traced run simulated something else", w.name)
		}
	}
}

// TestConservationCatchesLeak fabricates a silent drop — an L4 handler
// that frees packets without counting them — and checks that the
// repetition fails conservation and counts its packets as failed.
func TestConservationCatchesLeak(t *testing.T) {
	leaky := &workload{name: "leaky", window: quick, build: func(seed uint64, until sim.Time, serial bool) *bed {
		b := buildRxCache(seed, until, serial)
		srv := b.rx[0].h
		srv.Bind(overlay.SockKey{IP: srv.Containers()[0].IP, Port: 5001, Proto: proto.ProtoUDP},
			func(_ *cpu.Core, s *skb.SKB, _ *proto.Frame, done func()) {
				s.Free()
				done()
			})
		return b
	}}
	good := runRep(leaky, 1, repOpts{window: quick})
	if good.err == nil || !strings.Contains(good.err.Error(), "conservation") {
		t.Fatalf("leak not caught: err = %v, ledger %+v", good.err, good.ledger)
	}
	res := checkReps(io.Discard, leaky, []rep{good})
	if res.correct || res.failed != good.ledger.sent || res.failed == 0 {
		t.Errorf("result %+v, want incorrect with %d failed", res, good.ledger.sent)
	}

	// The untampered workload balances, and a fabricated imbalance or a
	// determinism break in one repetition fails only that repetition.
	w := workloads[1]
	r := runRep(w, 1, repOpts{window: quick})
	if r.err != nil {
		t.Fatal(r.err)
	}
	off := r
	off.ledger.reached--
	off.err = off.ledger.check()
	drift := r
	drift.win.v[cEvents]++
	res = checkReps(io.Discard, w, []rep{r, off, drift})
	if res.correct || res.failed != 2*r.ledger.sent || res.attempted != 3*r.ledger.sent {
		t.Errorf("result %+v, want 2 of 3 repetitions failed", res)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and (1, 2, 3, 4, 5).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// pbw writes protobuf wire format for the hand-built test profile.
type pbw struct{ b []byte }

func (w *pbw) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbw) uint(num int, v uint64) { w.varint(uint64(num) << 3); w.varint(v) }

func (w *pbw) msg(num int, body func(*pbw)) {
	var m pbw
	body(&m)
	w.varint(uint64(num)<<3 | 2)
	w.varint(uint64(len(m.b)))
	w.b = append(w.b, m.b...)
}

// uints writes a repeated field the way runtime/pprof does: packed when
// it has more than two elements.
func (w *pbw) uints(num int, vs []uint64) {
	if len(vs) <= 2 {
		for _, v := range vs {
			w.uint(num, v)
		}
		return
	}
	w.msg(num, func(m *pbw) {
		for _, v := range vs {
			m.varint(v)
		}
	})
}

// TestProfileAttribution decodes a hand-built gzipped profile and checks
// the attribution rule: the innermost repo frame decides, runtime-only
// stacks (race detector included) go to runtime, cluster synchronization
// to sim.cluster, and the cross-cutting GC, allocation and copy buckets.
func TestProfileAttribution(t *testing.T) {
	funcs := []string{
		"runtime.memmove",                          // 1
		"falcon/internal/gro.(*Engine).Push",       // 2
		"falcon/internal/sim.(*Engine).RunUntil",   // 3
		"main.runRep",                              // 4
		"runtime.gcDrain",                          // 5
		"runtime.gcBgMarkWorker",                   // 6
		"falcon/internal/sim.(*workerPool).runLPs", // 7
		"runtime.goexit",                           // 8
		"falcon/internal/skb.(*SKB).Stage",         // 9
		"falcon/internal/socket.(*Socket).Deliver", // 10
		"main.(*stageTracer).SKBStage",             // 11
		"runtime/pprof.profileWriter",              // 12
		"runtime.mallocgc",                         // 13
		"falcon/internal/overlay.(*Host).sendL4",   // 14
		"__tsan_read",                              // 15
		"runtime._System",                          // 16
	}
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, funcs...)
	// Locations map 1:1 to functions, except location 100, which holds
	// Stage inlined into Deliver (innermost line first).
	locs := map[uint64][]uint64{100: {9, 10}}
	for i := range funcs {
		locs[uint64(i+1)] = []uint64{uint64(i + 1)}
	}
	samples := []struct {
		locs []uint64
		ns   int64
	}{
		{[]uint64{1, 2, 3, 4}, 10}, // memmove under gro: gro, copy
		{[]uint64{5, 6}, 20},       // GC worker: runtime, gc
		{[]uint64{7, 8}, 30},       // worker pool: sim.cluster
		{[]uint64{100, 3, 4}, 40},  // inlined skb frame: skb
		{[]uint64{11, 9, 3}, 50},   // tracer hook: bench
		{[]uint64{12, 8}, 5},       // profiler goroutine: unattributed
		{[]uint64{13, 14}, 7},      // allocation under overlay: overlay, alloc
		{[]uint64{15, 16}, 3},      // race detector: runtime
	}
	var w pbw
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		w.msg(profSampleType, func(m *pbw) { m.uint(1, st[0]); m.uint(2, st[1]) })
	}
	for _, s := range samples {
		w.msg(profSample, func(m *pbw) {
			m.uints(sampleLocationID, s.locs)
			m.uints(sampleValue, []uint64{1, uint64(s.ns)})
		})
	}
	for id, fns := range locs {
		w.msg(profLocation, func(m *pbw) {
			m.uint(locationID, id)
			for _, fn := range fns {
				m.msg(locationLine, func(l *pbw) { l.uint(lineFunction, fn); l.uint(2, 7) })
			}
		})
	}
	for i := range funcs {
		w.msg(profFunction, func(m *pbw) { m.uint(functionID, uint64(i+1)); m.uint(functionName, uint64(i+5)) })
	}
	for _, s := range strs {
		w.msg(profStringTable, func(m *pbw) { m.b = append(m.b, s...) })
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(w.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	parsed, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(parsed)
	want := map[string]int64{"gro": 10, "runtime": 23, "sim.cluster": 30, "skb": 40, "bench": 50, unattributed: 5, "overlay": 7}
	for k, v := range want {
		if a.self[k] != v {
			t.Errorf("self[%q] = %d, want %d", k, a.self[k], v)
		}
	}
	if a.total != 165 || a.gc != 20 || a.alloc != 7 || a.copy != 10 {
		t.Errorf("total %d gc %d alloc %d copy %d, want 165 20 7 10", a.total, a.gc, a.alloc, a.copy)
	}
	if cov := a.coverage(); math.Abs(cov-(1-5.0/165)) > 1e-12 {
		t.Errorf("coverage %v", cov)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
