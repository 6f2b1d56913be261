package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped pprof protobuf that runtime/pprof writes
// (github.com/google/pprof proto/profile.proto), keeping only what layer
// attribution needs: samples, locations, functions and the string table.

// sample is one profile sample: its stack as function names, innermost
// first with inlined frames expanded, and its CPU nanoseconds.
type sample struct {
	stack []string
	ns    int64
}

// Field numbers of the messages read below.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
)

func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs      []string
		typeNames []uint64              // sample_type[i].type string index
		funcName  = map[uint64]uint64{} // function id -> name string index
		locFuncs  = map[uint64][]uint64{}
		raws      []rawSample
	)
	err = fields(raw, func(num, wire int, p *pbuf) error {
		switch num {
		case profSampleType:
			b, err := p.bytes(wire)
			if err != nil {
				return err
			}
			var typ uint64
			err = fields(b, func(num, wire int, q *pbuf) error {
				if num == valueTypeType {
					v, err := q.varint(wire)
					typ = v
					return err
				}
				return q.skip(wire)
			})
			typeNames = append(typeNames, typ)
			return err
		case profSample:
			b, err := p.bytes(wire)
			if err != nil {
				return err
			}
			var s rawSample
			err = fields(b, func(num, wire int, q *pbuf) error {
				switch num {
				case sampleLocationID:
					return q.uints(wire, func(v uint64) { s.locs = append(s.locs, v) })
				case sampleValue:
					return q.uints(wire, func(v uint64) { s.vals = append(s.vals, int64(v)) })
				}
				return q.skip(wire)
			})
			raws = append(raws, s)
			return err
		case profLocation:
			b, err := p.bytes(wire)
			if err != nil {
				return err
			}
			var id uint64
			var fns []uint64
			err = fields(b, func(num, wire int, q *pbuf) error {
				switch num {
				case locationID:
					v, err := q.varint(wire)
					id = v
					return err
				case locationLine:
					line, err := q.bytes(wire)
					if err != nil {
						return err
					}
					return fields(line, func(num, wire int, r *pbuf) error {
						if num == lineFunction {
							v, err := r.varint(wire)
							fns = append(fns, v)
							return err
						}
						return r.skip(wire)
					})
				}
				return q.skip(wire)
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			b, err := p.bytes(wire)
			if err != nil {
				return err
			}
			var id, name uint64
			err = fields(b, func(num, wire int, q *pbuf) error {
				switch num {
				case functionID:
					v, err := q.varint(wire)
					id = v
					return err
				case functionName:
					v, err := q.varint(wire)
					name = v
					return err
				}
				return q.skip(wire)
			})
			funcName[id] = name
			return err
		case profStringTable:
			b, err := p.bytes(wire)
			strs = append(strs, string(b))
			return err
		}
		return p.skip(wire)
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// Read the CPU time value; a profile without one counts samples.
	vi := -1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		s := sample{ns: 1}
		if vi >= 0 && vi < len(r.vals) {
			s.ns = r.vals[vi]
		}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// pbuf reads protobuf wire format.
type pbuf struct{ b []byte }

var errTruncated = errors.New("truncated protobuf")

// fields calls fn for every field of message b; fn must consume the
// field's payload through p.
func fields(b []byte, fn func(num, wire int, p *pbuf) error) error {
	p := &pbuf{b: b}
	for len(p.b) > 0 {
		key, err := p.rawVarint()
		if err != nil {
			return err
		}
		if err := fn(int(key>>3), int(key&7), p); err != nil {
			return err
		}
	}
	return nil
}

func (p *pbuf) rawVarint() (uint64, error) {
	var v uint64
	for i := 0; i < 10 && i < len(p.b); i++ {
		c := p.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			p.b = p.b[i+1:]
			return v, nil
		}
	}
	return 0, errTruncated
}

func (p *pbuf) varint(wire int) (uint64, error) {
	if wire != 0 {
		return 0, fmt.Errorf("wire type %d where a varint belongs", wire)
	}
	return p.rawVarint()
}

func (p *pbuf) bytes(wire int) ([]byte, error) {
	if wire != 2 {
		return nil, fmt.Errorf("wire type %d where bytes belong", wire)
	}
	n, err := p.rawVarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)) {
		return nil, errTruncated
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b, nil
}

// uints reads a repeated varint field in either packed or unpacked form.
func (p *pbuf) uints(wire int, add func(uint64)) error {
	if wire == 0 {
		v, err := p.rawVarint()
		add(v)
		return err
	}
	b, err := p.bytes(wire)
	if err != nil {
		return err
	}
	q := &pbuf{b: b}
	for len(q.b) > 0 {
		v, err := q.rawVarint()
		if err != nil {
			return err
		}
		add(v)
	}
	return nil
}

func (p *pbuf) skip(wire int) error {
	var n int
	switch wire {
	case 0:
		_, err := p.rawVarint()
		return err
	case 1:
		n = 8
	case 2:
		_, err := p.bytes(wire)
		return err
	case 5:
		n = 4
	default:
		return fmt.Errorf("unsupported wire type %d", wire)
	}
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// attribution splits a profile's CPU time across the repo's modules.
type attribution struct {
	total int64
	// self is CPU time by layer: the innermost frame that belongs to the
	// repo decides — a falcon/internal/<pkg> frame gives <pkg>, except
	// the sharded engine's synchronization (Cluster, workerPool,
	// PostSource), which gives "sim.cluster"; a frame of this benchmark
	// gives "bench". Stacks made only of runtime frames (GC workers,
	// the scheduler, the race detector) give "runtime"; anything else is
	// unattributed.
	self map[string]int64
	// Cross-cutting runtime costs, wherever they were incurred: GC work,
	// allocation outside GC, and samples whose leaf is memmove/memclr.
	gc, alloc, copy int64
}

const unattributed = ""

func attribute(samples []sample) attribution {
	a := attribution{self: map[string]int64{}}
	for _, s := range samples {
		a.total += s.ns
		a.self[layerOf(s.stack)] += s.ns
		switch {
		case anyPrefix(s.stack, "runtime.gc", "runtime.markroot", "runtime.scanobject",
			"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime._GC"):
			a.gc += s.ns
		case anyPrefix(s.stack, "runtime.mallocgc"):
			a.alloc += s.ns
		}
		if len(s.stack) > 0 && (strings.HasPrefix(s.stack[0], "runtime.memmove") ||
			strings.HasPrefix(s.stack[0], "runtime.memclr")) {
			a.copy += s.ns
		}
	}
	return a
}

// coverage is the share of CPU time attributed to a layer.
func (a attribution) coverage() float64 {
	if a.total == 0 {
		return 1
	}
	return 1 - float64(a.self[unattributed])/float64(a.total)
}

func (a *attribution) add(b attribution) {
	if a.self == nil {
		a.self = map[string]int64{}
	}
	a.total += b.total
	for k, v := range b.self {
		a.self[k] += v
	}
	a.gc += b.gc
	a.alloc += b.alloc
	a.copy += b.copy
}

func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "falcon/internal/"); ok {
			if strings.HasPrefix(rest, "sim.(*Cluster).") || strings.HasPrefix(rest, "sim.(*workerPool).") ||
				strings.HasPrefix(rest, "sim.(*PostSource).") {
				return "sim.cluster"
			}
			pkg, _, _ := strings.Cut(rest, ".")
			return pkg
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	if len(stack) == 0 {
		return unattributed
	}
	for _, fn := range stack {
		// Go function names are package-qualified; a symbol without a dot
		// is runtime support code in C or assembly (the race detector's
		// __tsan_* functions, for one).
		if !strings.HasPrefix(fn, "runtime.") && strings.Contains(fn, ".") {
			return unattributed
		}
	}
	return "runtime"
}

func anyPrefix(stack []string, prefixes ...string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}
