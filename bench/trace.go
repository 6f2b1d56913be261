package main

import (
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

// stageNames are the stamps the datapath already takes, in path order.
// "backlog" is stamped at every backlog enqueue (RPS hop, VXLAN and veth
// stages), so its histogram pools those hops.
var stageNames = []string{
	"wire", "nic-ring", "napi-poll", "backlog", "vxlan-decap",
	"bridge", "rx-cache-hit", "sock-queue", "delivered",
}

// stageTracer is the simulated-time stage tracer of one host. Attached as
// the host's skb.Auditor, it records for each stamp the time since the
// packet's previous stamp: a stamp where a packet leaves a queue measures
// its wait there, a stamp where it enters one measures the processing
// since the previous stamp. A packet's first stamp measures from its
// send time. The tracer only observes: it schedules nothing and never
// touches a packet.
type stageTracer struct {
	e        *sim.Engine
	from, to sim.Time // record stamps inside (from, to]
	last     map[*skb.SKB]stamp
	hist     map[string]*stats.Histogram
}

type stamp struct {
	at    sim.Time
	first bool // no stamp yet: measure from the send time
}

func newStageTracer(e *sim.Engine, from, to sim.Time) *stageTracer {
	t := &stageTracer{e: e, from: from, to: to,
		last: make(map[*skb.SKB]stamp), hist: make(map[string]*stats.Histogram)}
	for _, name := range stageNames {
		t.hist[name] = stats.NewHistogram()
	}
	return t
}

// SKBGet implements skb.Auditor.
func (t *stageTracer) SKBGet(s *skb.SKB, _ string) {
	t.last[s] = stamp{at: t.e.Now(), first: true}
}

// SKBStage implements skb.Auditor.
func (t *stageTracer) SKBStage(s *skb.SKB, stage string) {
	now := t.e.Now()
	prev, ok := t.last[s]
	if h := t.hist[stage]; ok && h != nil && now > t.from && now <= t.to {
		since := prev.at
		// The transmit path sets SendTime after the SKB is created.
		if prev.first && s.SendTime != 0 && s.SendTime < since {
			since = s.SendTime
		}
		h.Record(int64(now - since))
	}
	t.last[s] = stamp{at: now}
}

// SKBFree implements skb.Auditor.
func (t *stageTracer) SKBFree(s *skb.SKB) { delete(t.last, s) }

// SKBMisuse implements skb.Auditor.
func (t *stageTracer) SKBMisuse(*skb.SKB, string) {}

// SKBHandoff implements skb.Handoffer: a frame crossing to another shard
// takes its last stamp to the receiving host's tracer. It runs at the
// cluster barrier, with both shards parked.
func (t *stageTracer) SKBHandoff(s *skb.SKB, to skb.Auditor) {
	if dst, ok := to.(*stageTracer); ok {
		if st, ok := t.last[s]; ok {
			dst.last[s] = st
		}
	}
	delete(t.last, s)
}

// depthSampler records, on every timer tick inside the window, the
// deepest NIC ring, backlog and socket receive queue of one receive host.
type depthSampler struct {
	ring, backlog, sock *stats.Histogram
}

// tracer is the traced pass's simulated-time instrumentation of one bed.
type tracer struct {
	stages []*stageTracer
	depths []*depthSampler
}

// attachTracer installs a stage tracer on every host and a depth sampler
// on every receive host, recording inside (from, to]. Call before the
// engine runs.
func attachTracer(b *bed, from, to sim.Time) *tracer {
	tr := &tracer{}
	for _, h := range b.hosts {
		st := newStageTracer(h.E, from, to)
		h.Audit = st
		tr.stages = append(tr.stages, st)
	}
	for _, r := range b.rx {
		r := r
		d := &depthSampler{ring: stats.NewHistogram(), backlog: stats.NewHistogram(), sock: stats.NewHistogram()}
		tr.depths = append(tr.depths, d)
		r.h.M.OnTick(func(now sim.Time) {
			if now <= from || now > to {
				return
			}
			var ring, backlog, sock int
			for c := 0; c < r.h.M.NumCores(); c++ {
				n, _, _ := r.h.NIC.QueueState(c)
				ring = max(ring, n)
				local, remote, _, _ := r.h.St.BacklogState(c)
				backlog = max(backlog, local+remote)
			}
			for _, sk := range r.socks {
				sock = max(sock, sk.QueueLen())
			}
			d.ring.Record(int64(ring))
			d.backlog.Record(int64(backlog))
			d.sock.Record(int64(sock))
		})
	}
	return tr
}

// stage merges one stage's histogram over every host.
func (tr *tracer) stage(name string) *stats.Histogram {
	h := stats.NewHistogram()
	for _, st := range tr.stages {
		h.Merge(st.hist[name])
	}
	return h
}

// depth merges one queue's depth samples over every receive host.
func (tr *tracer) depth(get func(*depthSampler) *stats.Histogram) *stats.Histogram {
	h := stats.NewHistogram()
	for _, d := range tr.depths {
		h.Merge(get(d))
	}
	return h
}
