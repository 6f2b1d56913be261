// Command bench is the repository's benchmark: it runs one workload on
// the simulator, checks that every repetition conserved its packets and
// was deterministic, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics of a traced pass) by name with their
// units. The last line of its output is one JSON object.
//
//	go run . -workload udp-flood-falcon -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"falcon/internal/sim"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the bounded metrics. Three costs of the simulator are
// printed here but reported, unbounded, only by the traced pass: host
// wall time per packet, because the host's speed drifts by up to 1.9x in
// phases that outlast a run; allocations per packet, which are near zero
// on most workloads, where a relative bound means nothing; and the heap,
// which differs by up to 15% between seeds (see bench/README.md).
var endToEnd = []metricSpec{
	{"events_per_pkt", "events/pkt"},
	{"setup_s", "s"},
	{"model_kpps", "Kpps"},
	{"model_p50_us", "us"},
	{"model_p99_us", "us"},
	{"model_p999_us", "us"},
	{"model_softirq_ns_per_pkt", "ns/pkt"},
	{"model_delivered_pct", "%"},
}

// Repetition counts: one discarded warm-up repetition, then measured
// repetitions until the time budget is spent, at least minReps of them.
// setup_s is the median of setupsPerRep dedicated builds before each
// measured repetition, spread over the run like the repetitions.
const (
	minReps      = 3
	setupsPerRep = 64
)

// result is what one invocation reports.
type result struct {
	correct           bool
	attempted, failed uint64
	specs             []metricSpec
	values            map[string]float64
}

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	wname := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds of measured repetitions")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.Parse()
	w, err := workloadByName(*wname)
	if err != nil || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: bad arguments (workloads: %s)\n", strings.Join(names, ", "))
		flag.Usage()
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res = traced(w, *seed, w.window, budget, os.Stdout)
	} else {
		res = measure(w, *seed, w.window, budget, os.Stdout)
	}
	if err := writeJSON(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// measure is the end-to-end run: setup samples, a warm-up repetition,
// then measured repetitions for the budget, with tracing off.
func measure(w *workload, seed uint64, window sim.Time, budget time.Duration, out io.Writer) result {
	o := repOpts{window: window}
	warm := runRep(w, seed, o)
	var reps []rep
	var setups []float64
	for start := time.Now(); len(reps) < minReps || time.Since(start) < budget; {
		setups = append(setups, setupTimes(w, seed, window, setupsPerRep)...)
		reps = append(reps, runRep(w, seed, o))
	}
	res := checkReps(out, w, append([]rep{warm}, reps...))
	res.specs = endToEnd
	res.values = map[string]float64{}
	perRep := make([]map[string]float64, len(reps))
	for i, r := range reps {
		perRep[i] = endToEndOf(r, window)
		perRep[i]["wall_ns_per_pkt"], perRep[i]["allocs_per_pkt"] = wallPerPkt(r), allocsPerPkt(r)
		perRep[i]["heap_inuse_mb"] = heapMB(r)
	}
	fmt.Fprintf(out, "workload %s seed %d: %d repetitions of %v simulated after a %v warm-up, setup over %d builds, GOMAXPROCS %d, %d CPUs\n",
		w.name, seed, len(reps), window, warmup, len(setups), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(out, "%-26s %14s %14s %14s  %s\n", "metric", "median", "q1", "q3", "unit")
	unbounded := []metricSpec{{"wall_ns_per_pkt", "ns/pkt"}, {"allocs_per_pkt", "allocs/pkt"}, {"heap_inuse_mb", "MB"}}
	for i, m := range append(endToEnd[:len(endToEnd):len(endToEnd)], unbounded...) {
		var xs []float64
		if m.name == "setup_s" {
			xs = setups
		} else {
			for _, v := range perRep {
				xs = append(xs, v[m.name])
			}
		}
		q1, med, q3 := quartiles(xs)
		note := ""
		if i >= len(endToEnd) {
			note = " (unbounded)"
		}
		res.values[m.name] = med
		fmt.Fprintf(out, "%-26s %14.6g %14.6g %14.6g  %s%s\n", m.name, med, q1, q3, m.unit, note)
	}
	fmt.Fprintf(out, "latency samples per repetition: %d (p99.9 rests on %d beyond it)\n",
		reps[0].lat.n, reps[0].lat.n/1000)
	return res
}

// endToEndOf computes one repetition's end-to-end metrics, except
// setup_s, which measure takes from its own setup samples.
func endToEndOf(r rep, window sim.Time) map[string]float64 {
	d := &r.win.v
	pkts := float64(max(d[cDelivered], 1))
	delivered := 100.0
	if d[cTxMsgs] > 0 {
		delivered = 100 * (1 - float64(r.win.dropped())/float64(d[cTxMsgs]))
	}
	return map[string]float64{
		"events_per_pkt":           float64(d[cEvents]) / pkts,
		"model_kpps":               float64(d[cDelivered]) / window.Seconds() / 1e3,
		"model_p50_us":             float64(r.lat.p50) / 1e3,
		"model_p99_us":             float64(r.lat.p99) / 1e3,
		"model_p999_us":            float64(r.lat.p999) / 1e3,
		"model_softirq_ns_per_pkt": float64(d[cSoftirqNs]) / pkts,
		"model_delivered_pct":      delivered,
	}
}

// wallPerPkt is a repetition's host wall time per delivered packet.
func wallPerPkt(r rep) float64 {
	return float64(r.wall.Nanoseconds()) / float64(max(r.win.v[cDelivered], 1))
}

// allocsPerPkt is a repetition's mallocs per delivered packet.
func allocsPerPkt(r rep) float64 {
	return float64(r.mallocs) / float64(max(r.win.v[cDelivered], 1))
}

// heapMB is a repetition's HeapInuse after a GC at the window's end.
func heapMB(r rep) float64 { return float64(r.heapInuse) / 1e6 }

// repsFor runs repetitions until budget has passed, at least min of them.
func repsFor(w *workload, seed uint64, o repOpts, budget time.Duration, min int) []rep {
	var reps []rep
	start := time.Now()
	for len(reps) < min || time.Since(start) < budget {
		reps = append(reps, runRep(w, seed, o))
	}
	return reps
}

// checkReps applies the correctness checks to a workload's repetitions:
// each must have conserved its packets, and all must report the same
// event count and simulated results as the first. A repetition that
// fails counts its packets as failed.
func checkReps(out io.Writer, w *workload, reps []rep) result {
	res := result{correct: true}
	for i, r := range reps {
		res.attempted += r.ledger.sent
		err := r.err
		if err == nil && !sameModel(r, reps[0]) {
			err = fmt.Errorf("determinism: events or simulated results differ from repetition 0")
		}
		if err != nil {
			res.correct = false
			res.failed += r.ledger.sent
			fmt.Fprintf(out, "CHECK FAILED %s repetition %d: %v\n", w.name, i, err)
		}
	}
	l := reps[0].ledger
	fmt.Fprintf(out, "checks: %d repetitions; conservation sent %d = lost %d + gro-merged %d + reached-L4 %d; deterministic: %t\n",
		len(reps), l.sent, l.lost, l.merged, l.reached, res.correct)
	return res
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeJSON prints the result as the final output line.
func writeJSON(w io.Writer, res result) error {
	metrics := make(map[string]jsonMetric, len(res.specs))
	for _, m := range res.specs {
		v, ok := res.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
