package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzClusterOrder runs a byte-coded program of message-passing nodes on
// clusters of 2, 3 and 4 shards, and on the serial engine. Node i sits on shard i%shards. Each node runs a chain of steps;
// each step reads one byte of the node's own stream (the program bytes
// after the first, dealt round-robin to the nodes), may post a message
// to any node, itself included, and schedules the next step. Every
// message goes through the cluster's PostSource for its (sender,
// receiver) pair, also when both sit on one shard, and its arrivals are
// clamped to be monotone, as Link.Send clamps them. Steps and arrivals
// lie on a coarse grid, so several sources often deliver into one node
// at equal arrival and send time. The run checks that:
//   - every node's trace is in the documented order: (arrival, send
//     time), then the node's own step before any delivery with the same
//     pair, then deliveries by ascending source id, each source in send
//     order;
//   - the traces are identical for every shard count, and
//     every message is delivered once;
//   - for a program without such ties (no two sources, or a source and
//     the receiver's own step, sharing an arrival and send time at one
//     node), the traces equal the serial engine's, where every message
//     is an event scheduled at send.
func FuzzClusterOrder(f *testing.F) {
	for _, p := range clusterOrderSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		var ref *orderRun
		for _, shards := range []int{2, 3, 4} {
			r := runClusterOrder(prog, shards)
			name := fmt.Sprintf("shards=%d", shards)
			r.check(t, name)
			if ref == nil {
				ref = r
			} else if !reflect.DeepEqual(r.traces, ref.traces) {
				t.Fatalf("%s: traces differ from shards=2\n got %v\nwant %v", name, r.traces, ref.traces)
			}
		}
		if ref.ties() {
			return
		}
		if s := runClusterOrder(prog, 0); !reflect.DeepEqual(s.traces, ref.traces) {
			t.Fatalf("tie-free program: cluster traces differ from serial\ncluster %v\n serial %v", ref.traces, s.traces)
		}
	})
}

// Program grid: steps are Q apart times 1–4, and a message arrives the
// lookahead L plus 0–3 Q after its send.
const (
	orderQ = Time(64)
	orderL = 4 * orderQ
)

// orderRec is one trace entry: a node's own step (src < 0) or the
// delivery of src's sseq-th message to the node.
type orderRec struct {
	at, schedAt Time
	src, sseq   int
}

func (r orderRec) String() string {
	if r.src < 0 {
		return fmt.Sprintf("step@%d/%d", r.at, r.schedAt)
	}
	return fmt.Sprintf("recv%d.%d@%d/%d", r.src, r.sseq, r.at, r.schedAt)
}

// before is the documented order of two entries at one node.
func (r orderRec) before(o orderRec) bool {
	switch {
	case r.at != o.at:
		return r.at < o.at
	case r.schedAt != o.schedAt:
		return r.schedAt < o.schedAt
	case r.src != o.src:
		return r.src < o.src // a step's src is -1
	default:
		return r.sseq < o.sseq
	}
}

type orderRun struct {
	traces [][]orderRec
	sent   int
}

type orderNode struct {
	e   *Engine
	ops []byte // the node's stream, one byte per step
}

type orderMsg struct {
	dst       int
	src, sseq int
	schedAt   Time
}

// runClusterOrder runs prog on a cluster of the given shards, or on one
// serial engine when shards is 0.
func runClusterOrder(prog []byte, shards int) *orderRun {
	n := 2 + int(prog[0]%5)
	spread := prog[0]&0x80 != 0 // node i's grid is offset by i ns
	r := &orderRun{traces: make([][]orderRec, n)}
	var c *Cluster
	var serial *Engine
	engine := func(i int) *Engine {
		if c != nil {
			return c.Shard(i)
		}
		return serial
	}
	if shards > 0 {
		c = NewCluster(1, shards, 1)
	} else {
		serial = New(1)
	}
	nodes := make([]*orderNode, n)
	for i := range nodes {
		nodes[i] = &orderNode{e: engine(i)}
	}
	for k, b := range prog[1:] {
		nodes[k%n].ops = append(nodes[k%n].ops, b)
	}
	// One source per ordered pair, allocated in the same order for every
	// layout; last and sseq are the pair's monotone clamp and send count.
	outs := make([]*PostSource, n*n)
	last := make([]Time, n*n)
	sseq := make([]int, n*n)
	if c != nil {
		for i := range outs {
			outs[i] = c.Source(engine(i/n), engine(i%n), orderL)
		}
	}
	recv := func(v any) {
		m := v.(*orderMsg)
		d := nodes[m.dst]
		r.traces[m.dst] = append(r.traces[m.dst], orderRec{at: d.e.Now(), schedAt: m.schedAt, src: m.src, sseq: m.sseq})
	}
	var step func(i int, schedAt Time) func()
	step = func(i int, schedAt Time) func() {
		return func() {
			nd := nodes[i]
			now := nd.e.Now()
			r.traces[i] = append(r.traces[i], orderRec{at: now, schedAt: schedAt, src: -1})
			if len(nd.ops) == 0 {
				return
			}
			b := nd.ops[0]
			nd.ops = nd.ops[1:]
			if b&4 != 0 {
				dst := int(b>>3&7) % n
				pair := i*n + dst
				at := max(now+orderL+orderQ*Time(b>>6), last[pair])
				last[pair] = at
				sseq[pair]++
				m := &orderMsg{dst: dst, src: pair, sseq: sseq[pair], schedAt: now}
				if c != nil {
					outs[pair].Post(at, recv, m)
				} else {
					serial.At(at, func() { recv(m) })
				}
			}
			nd.e.After(orderQ*Time(1+b&3), step(i, now))
		}
	}
	for i, nd := range nodes {
		start := Time(0)
		if spread {
			start = Time(i)
		}
		nd.e.At(start, step(i, 0))
	}
	if c != nil {
		c.Run()
	} else {
		serial.Run()
	}
	for _, k := range sseq {
		r.sent += k
	}
	return r
}

// check verifies every node's trace order and that every message was
// delivered.
func (r *orderRun) check(t *testing.T, name string) {
	t.Helper()
	got := 0
	for i, tr := range r.traces {
		for k := 1; k < len(tr); k++ {
			if !tr[k-1].before(tr[k]) {
				t.Fatalf("%s: node %d runs %v before %v\ntrace %v", name, i, tr[k-1], tr[k], tr)
			}
		}
		for _, e := range tr {
			if e.src >= 0 {
				got++
			}
		}
	}
	if got != r.sent {
		t.Fatalf("%s: %d messages delivered, %d sent", name, got, r.sent)
	}
}

// ties reports whether two entries at one node share an arrival and send
// time: the cases where the serial engine's order depends on which
// sender ran first and cannot be reproduced across shards.
func (r *orderRun) ties() bool {
	for _, tr := range r.traces {
		for k := 1; k < len(tr); k++ {
			if tr[k-1].at == tr[k].at && tr[k-1].schedAt == tr[k].schedAt {
				return true
			}
		}
	}
	return false
}

// clusterOrderSeeds are hand-built programs: dense all-to-one posting
// from nodes on one grid (many ties), the same spread over offset grids
// (tie-free), and self-posts.
func clusterOrderSeeds() [][]byte {
	var seeds [][]byte
	for _, hdr := range []byte{0, 1, 2, 3, 4, 0x82, 0x84} {
		n := 2 + int(hdr%5)
		allToZero := []byte{hdr}
		mixed := []byte{hdr}
		for k := 0; k < 12*n; k++ {
			allToZero = append(allToZero, 4|byte(k%4)<<6)
			mixed = append(mixed, byte(k*37+11))
		}
		seeds = append(seeds, allToZero, mixed)
	}
	return seeds
}
