package audit

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"falcon/internal/sim"
)

// traceEv is one entry in the fixed-size ring of recent lifecycle
// events. Labels are the static stage/site strings the datapath already
// interns, so recording is allocation-free in steady state.
type traceEv struct {
	at    sim.Time
	kind  byte // 'G'et, 'S'tage, 'F'ree, 'M'isuse, 'N'ote
	label string
	seq   uint64
	gen   uint32
}

func (l *ledger) trace(at sim.Time, kind byte, label string, seq uint64, gen uint32) {
	if l.ring == nil {
		l.ring = make([]traceEv, ringSize)
	}
	l.ring[l.ringAt] = traceEv{at: at, kind: kind, label: label, seq: seq, gen: gen}
	l.ringAt = (l.ringAt + 1) % len(l.ring)
	if l.ringLen < len(l.ring) {
		l.ringLen++
	}
}

// traceNote records a coordinator-side note (a sweep), stamped with the
// Sim's clock.
func (a *Auditor) traceNote(label string) {
	a.l.trace(a.E.Now(), 'N', label, 0, 0)
}

// writeRing renders the trace ring oldest-first.
func (l *ledger) writeRing(w io.Writer) {
	fmt.Fprintf(w, "trace ring (%d most recent events):\n", l.ringLen)
	n := len(l.ring)
	for i := l.ringLen; i >= 1; i-- {
		ev := l.ring[(l.ringAt-i+n)%n]
		switch ev.kind {
		case 'N':
			fmt.Fprintf(w, "  %12v %c %s\n", ev.at, ev.kind, ev.label)
		default:
			fmt.Fprintf(w, "  %12v %c skb#%d gen=%d %s\n", ev.at, ev.kind, ev.seq, ev.gen, ev.label)
		}
	}
}

// RunInfo identifies the exact run a dump came from; the header line it
// renders is everything -replay needs to reproduce the failure.
type RunInfo struct {
	Exp    string
	Seed   int64
	Kernel string
	Quick  bool
	// Cache records the RX decap fast path (-cache).
	Cache bool
	// Reconfig, when non-empty, embeds the compact JSON of a -reconfig
	// schedule that replaced the experiment's built-in plan.
	Reconfig string
}

const dumpMagic = "FALCON-AUDIT-DUMP v1"

// WriteDump writes a replayable failure dump: a machine-parsable header
// naming the experiment/seed/config, the violation, and the auditor's
// full state (ledger, dispositions, per-core dumps, trace ring).
func WriteDump(w io.Writer, info RunInfo, v *Violation, a *Auditor) {
	fmt.Fprintf(w, "%s exp=%s seed=%d kernel=%q quick=%t cache=%t",
		dumpMagic, info.Exp, info.Seed, info.Kernel, info.Quick, info.Cache)
	if info.Reconfig != "" {
		fmt.Fprintf(w, " reconfig=%q", info.Reconfig)
	}
	fmt.Fprintln(w)
	if v != nil {
		fmt.Fprintf(w, "violation: %s\n", v)
	}
	if a != nil {
		a.WriteState(w)
	}
}

// WriteDumpFile is WriteDump to a file path.
func WriteDumpFile(path string, info RunInfo, v *Violation, a *Auditor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	WriteDump(bw, info, v, a)
	return bw.Flush()
}

// ParseDumpHeader reads the first line of a dump and recovers the
// RunInfo, so `falconsim -replay <dump>` can re-run the exact
// seed/config in one command.
func ParseDumpHeader(r io.Reader) (RunInfo, error) {
	var info RunInfo
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return info, fmt.Errorf("audit: reading dump header: %w", err)
	}
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, dumpMagic+" ") {
		return info, fmt.Errorf("audit: not an audit dump (want %q header)", dumpMagic)
	}
	// Fields are space-separated key=value pairs. A quoted value may
	// itself contain spaces, so it ends at its closing quote.
	rest := strings.TrimPrefix(line, dumpMagic+" ")
	for rest = strings.TrimLeft(rest, " "); rest != ""; rest = strings.TrimLeft(rest, " ") {
		k, v, ok := strings.Cut(rest, "=")
		if !ok || strings.Contains(k, " ") {
			f, _, _ := strings.Cut(rest, " ")
			return info, fmt.Errorf("audit: malformed dump header field %q", f)
		}
		if q, err := strconv.QuotedPrefix(v); err == nil && (len(q) == len(v) || v[len(q)] == ' ') {
			v, rest = q, v[len(q):]
		} else {
			v, rest, _ = strings.Cut(v, " ")
		}
		f := k + "=" + v
		var err error
		switch k {
		case "exp":
			info.Exp = v
		case "seed":
			_, err = fmt.Sscanf(v, "%d", &info.Seed)
		case "kernel":
			info.Kernel, err = strconv.Unquote(v)
		case "quick":
			info.Quick = v == "true"
		case "cache":
			info.Cache = v == "true"
		case "reconfig":
			info.Reconfig, err = strconv.Unquote(v)
		}
		if err != nil {
			return info, fmt.Errorf("audit: malformed dump header field %q: %w", f, err)
		}
	}
	if info.Exp == "" {
		return info, fmt.Errorf("audit: dump header %q names no experiment", line)
	}
	return info, nil
}

// ParseDumpFile is ParseDumpHeader over a file path.
func ParseDumpFile(path string) (RunInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return RunInfo{}, err
	}
	defer f.Close()
	return ParseDumpHeader(f)
}
