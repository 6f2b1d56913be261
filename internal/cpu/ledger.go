package cpu

import (
	"sort"

	"falcon/internal/costmodel"
	"falcon/internal/stats"
)

// Ledger is a machine's one record of CPU time: every finished slice is
// charged to it once, per core, by context and by datapath function.
// The context view is /proc/stat's (the paper's Figs. 5, 11 and 19 and
// the load signal); the function view is perf's (the flamegraph tables
// of Figs. 6 and 9a). Neither derives from the other: FnAppWork runs in
// softirq and in task context, and FnTxNIC in either.
//
// Its counters run from the machine's start and, like /proc/stat's, no
// reset rewinds them: a reset only moves the start of the measurement
// window, which the window readers subtract. The load meter, Falcon's
// health tracker and the dynamic GRO split read the counters since
// boot, so measurement never steers them.
type Ledger struct {
	cores []coreTime // since the machine started
	// start is cores at the start of the measurement window, nil until
	// the first reset.
	start      []coreTime
	calls      [costmodel.NumFuncs]uint64
	startCalls [costmodel.NumFuncs]uint64
	since      int64 // start of the measurement window
	until      int64 // end of the latest charged slice
}

// coreTime is one core's busy nanoseconds by context and by function.
type coreTime struct {
	ctx [stats.NumContexts]int64
	fn  [costmodel.NumFuncs]int64
}

// busy sums the non-idle contexts.
func (c *coreTime) busy() int64 {
	var t int64
	for _, ns := range c.ctx[stats.CtxHardIRQ:] {
		t += ns
	}
	return t
}

// init sizes the ledger for cores CPU cores. The window-start view
// comes with the first reset; until then the window starts at boot.
func (l *Ledger) init(cores int) { l.cores = make([]coreTime, cores) }

// atBoot is every core's time when the machine starts.
var atBoot coreTime

// startOf returns core's time at the start of the measurement window.
func (l *Ledger) startOf(core int) *coreTime {
	if l.start == nil {
		return &atBoot
	}
	return &l.start[core]
}

// charge records one slice of ns nanoseconds of fn in context ctx on
// core, ending at virtual time end.
func (l *Ledger) charge(core int, ctx stats.CPUContext, fn costmodel.Func, ns, end int64) {
	c := &l.cores[core]
	c.ctx[ctx] += ns
	c.fn[fn] += ns
	l.calls[fn]++
	if end > l.until {
		l.until = end
	}
}

// reset starts a fresh measurement window at time now.
func (l *Ledger) reset(now int64) {
	if l.start == nil {
		l.start = make([]coreTime, len(l.cores))
	}
	copy(l.start, l.cores)
	l.startCalls = l.calls
	l.since, l.until = now, now
}

// BusySinceBoot returns the busy ns of core across all non-idle
// contexts since the machine started: /proc/stat's view, which no
// measurement reset rewinds.
func (l *Ledger) BusySinceBoot(core int) int64 { return l.cores[core].busy() }

// CoreTimeSinceBoot returns the ns of fn on core since the machine
// started, which no measurement reset rewinds.
func (l *Ledger) CoreTimeSinceBoot(core int, fn costmodel.Func) int64 {
	return l.cores[core].fn[fn]
}

// Busy returns the busy ns of ctx on core in the measurement window.
func (l *Ledger) Busy(core int, ctx stats.CPUContext) int64 {
	return l.cores[core].ctx[ctx] - l.startOf(core).ctx[ctx]
}

// TotalBusy returns the busy ns of core across all non-idle contexts in
// the measurement window.
func (l *Ledger) TotalBusy(core int) int64 {
	return l.cores[core].busy() - l.startOf(core).busy()
}

// Utilization returns core's busy fraction of the measurement window,
// clamped to [0, 1].
func (l *Ledger) Utilization(core int) float64 {
	return l.fraction(l.TotalBusy(core))
}

// ContextShare returns the fraction of the measurement window core
// spent in ctx, clamped to [0, 1].
func (l *Ledger) ContextShare(core int, ctx stats.CPUContext) float64 {
	return l.fraction(l.Busy(core, ctx))
}

func (l *Ledger) fraction(ns int64) float64 {
	span := l.until - l.since
	if span <= 0 {
		return 0
	}
	return min(float64(ns)/float64(span), 1)
}

// CoreTime returns the ns of fn on core in the measurement window.
func (l *Ledger) CoreTime(core int, fn costmodel.Func) int64 {
	return l.cores[core].fn[fn] - l.startOf(core).fn[fn]
}

// Calls returns the number of slices of fn in the measurement window.
func (l *Ledger) Calls(fn costmodel.Func) uint64 { return l.calls[fn] - l.startCalls[fn] }

// funcTimes returns the ns of every function summed over cores, and
// their total.
func (l *Ledger) funcTimes() (fns [costmodel.NumFuncs]int64, total int64) {
	for c := range l.cores {
		for f := range fns {
			fns[f] += l.CoreTime(c, costmodel.Func(f))
		}
	}
	for _, ns := range fns {
		total += ns
	}
	return fns, total
}

// Share returns fn's fraction of all CPU time in the measurement window.
func (l *Ledger) Share(fn costmodel.Func) float64 {
	fns, total := l.funcTimes()
	if total == 0 {
		return 0
	}
	return float64(fns[fn]) / float64(total)
}

// FuncShare is one row of a flamegraph table.
type FuncShare struct {
	Func  costmodel.Func
	Ns    int64
	Share float64
	Calls uint64
}

// Top returns the n most expensive functions of the measurement window
// (all of them when n <= 0) with their shares, sorted by time
// descending and then by function: the flamegraph's widest frames.
func (l *Ledger) Top(n int) []FuncShare {
	fns, total := l.funcTimes()
	if total == 0 {
		return nil
	}
	var all []FuncShare
	for f, ns := range fns {
		if ns > 0 {
			fn := costmodel.Func(f)
			all = append(all, FuncShare{Func: fn, Ns: ns, Share: float64(ns) / float64(total), Calls: l.Calls(fn)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Ns != all[j].Ns {
			return all[i].Ns > all[j].Ns
		}
		return all[i].Func < all[j].Func
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// Table renders the top-n functions as a stats.Table shaped like the
// paper's flamegraph annotations ("gro_cell_poll 30.61%...").
func (l *Ledger) Table(title string, n int) *stats.Table {
	t := &stats.Table{Title: title, Columns: []string{"function", "cpu%", "calls", "time"}}
	for _, fs := range l.Top(n) {
		t.AddRow(stats.Text(fs.Func.String()), stats.Num("%.2f%%", fs.Share*100),
			stats.Num("%.0f", float64(fs.Calls)), stats.Num("%.3fms", float64(fs.Ns)/1e6))
	}
	return t
}

// LoadMeter maintains a per-core load estimate over the last tick — the
// simulation's analogue of sampling /proc/stat from the timer interrupt,
// which is exactly how the paper's Falcon implementation measures load
// (Section 5). Loads update only on a tick, so readers between
// ticks observe slightly stale values, reproducing the paper's
// observation that per-packet balancing lacks timely load information.
// A machine ticks past its first tick only while something subscribes
// through Machine.OnTick (Falcon does), so only such a machine's loads
// stay fresh.
type LoadMeter struct {
	cores     []coreLoad
	lastTick  int64
	systemAvg float64
}

// coreLoad is one core's load estimate.
type coreLoad struct {
	lastBusy int64 // busy ns at the previous tick
	load     float64
}

// init sizes the meter for cores CPU cores.
func (m *LoadMeter) init(cores int) { m.cores = make([]coreLoad, cores) }

// tick recomputes per-core load from l's busy time since the last tick.
// now is the current virtual time.
func (m *LoadMeter) tick(l *Ledger, now int64) {
	span := now - m.lastTick
	if span <= 0 {
		return
	}
	sum := 0.0
	for c := range m.cores {
		cl := &m.cores[c]
		busy := l.BusySinceBoot(c)
		cl.load = min(float64(busy-cl.lastBusy)/float64(span), 1)
		cl.lastBusy = busy
		sum += cl.load
	}
	m.systemAvg = sum / float64(len(m.cores))
	m.lastTick = now
}

// Load returns the most recent load estimate of a core.
func (m *LoadMeter) Load(core int) float64 { return m.cores[core].load }

// SystemAvg returns the most recent average load over all cores — the
// paper's L_avg used in Algorithm 1's enable gate.
func (m *LoadMeter) SystemAvg() float64 { return m.systemAvg }
