// Package devices implements the network devices on the paper's data
// path: the physical NIC (rx rings, NAPI, RSS, GRO, hardware interrupt
// coalescing), the point-to-point link with real serialization delay,
// the Linux bridge (learning FDB), and veth pairs — plus the composed
// receive pipeline (rxpath.go) that chains them exactly as Figure 8
// shows, with Falcon's stage transitions at each device boundary.
package devices

import (
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

// Gbps expresses link rates.
const Gbps = 1e9

// ethOverheadBytes approximates per-frame wire overhead beyond the
// Ethernet header already present in the frame: preamble, SFD, FCS and
// inter-frame gap.
const ethOverheadBytes = 24

// DefaultTxQueueLen mirrors Linux's default NIC qdisc length.
const DefaultTxQueueLen = 1000

// Link is a unidirectional point-to-point wire with finite bandwidth, a
// bounded transmit queue, and propagation delay. Frames serialize in
// FIFO order; a full queue drops (the sender-side bottleneck the paper
// hits in 16 B single-client UDP tests).
type Link struct {
	E *sim.Engine
	// RateBitsPerSec is the link speed (10 Gb/s and 100 Gb/s in the
	// paper's testbed).
	RateBitsPerSec float64
	// Delay is one-way propagation latency (direct cable: sub-µs).
	Delay sim.Time
	// Deliver receives each frame at the far end.
	Deliver func(s *skb.SKB)

	// TxQueueLen bounds frames in flight on the serializer.
	TxQueueLen int

	// MTU, when positive, is the largest IP packet the wire carries;
	// senders must fragment beyond it (0 = jumbo-frame mode, the
	// default, modelling GSO/TSO offloads).
	MTU int

	// Failure injection. LossRate drops each frame independently with
	// the given probability; Jitter adds a uniform random delay in
	// [0, Jitter] to each frame without reordering the wire (delays are
	// monotonized, as on a real point-to-point link).
	LossRate float64
	Jitter   sim.Time

	// Remote, when set, marks the far end as living on another PDES
	// shard: live frames are handed to it (a sim.PostSource wrapper)
	// at Send time with their computed arrival, while all link state —
	// serializer, queue, RNG draws for loss and jitter, counters, and
	// the disposal of lost frames — stays on the sending shard.
	Remote RemoteEgress

	busyUntil   sim.Time
	lastArrival sim.Time
	rng         *sim.Rand

	// inflight is the FIFO of frames on the wire; its length is the
	// frames queued or serializing. Arrival times are monotone
	// (serialization order, and jitter is monotonized) and so are the
	// keys stamped at Send, so the head is always the frame that arrives
	// next. One engine-group slot, arrival, is set to the head's arrival
	// under the key stamped when the head was sent: it fires exactly
	// where a per-frame delivery event would have.
	inflight sim.FIFO[wireFrame]
	arrival  sim.Slots

	Sent    stats.Counter
	Dropped stats.Counter
	// Lost counts frames destroyed by injected loss (distinct from
	// queue-overflow drops).
	Lost stats.Counter
}

// NewLink builds a link of the given rate on engine e.
func NewLink(e *sim.Engine, rateBitsPerSec float64, delay sim.Time) *Link {
	l := &Link{
		E: e, RateBitsPerSec: rateBitsPerSec, Delay: delay,
		TxQueueLen: DefaultTxQueueLen, rng: e.Rand().Fork(),
	}
	l.arrival = e.NewSlots(1, l.arrive)
	return l
}

// RemoteEgress carries frames whose delivery belongs to another PDES
// shard (the overlay wires it to a cluster PostSource targeting the
// receiving host's engine).
type RemoteEgress interface {
	// Send hands the frame to the far shard for delivery at arrival.
	Send(s *skb.SKB, arrival sim.Time)
}

// SerializationTime returns how long a frame of n bytes occupies the wire.
func (l *Link) SerializationTime(n int) sim.Time {
	bits := float64(n+ethOverheadBytes) * 8
	return sim.Time(bits / l.RateBitsPerSec * 1e9)
}

// Lookahead returns the minimum sender→receiver latency any frame on
// this link can experience: serialization of a zero-byte payload (wire
// overhead still serializes) plus propagation delay, floored at 1 ns.
// Jitter only ever adds delay and a busy serializer only pushes
// arrivals later, so no frame sent at time t can arrive before
// t+Lookahead() — the conservative bound a PDES cluster synchronizes
// on, and sim.PostSource's horizon guard re-checks it on every frame.
func (l *Link) Lookahead() sim.Time {
	la := l.SerializationTime(0) + l.Delay
	if la < 1 {
		la = 1
	}
	return la
}

// QueueLen returns frames currently queued or serializing.
func (l *Link) QueueLen() int { return l.inflight.Len() }

// Send enqueues a frame for transmission. It reports false when the
// transmit queue is full (frame dropped).
func (l *Link) Send(s *skb.SKB) bool {
	if l.inflight.Len() >= l.TxQueueLen {
		l.Dropped.Inc()
		// The frame is dropped here, not handed back: no caller retries a
		// full tx queue, so the SKB's lifetime ends at this stage.
		s.Drop(skb.DropLinkTxq)
		return false
	}
	now := l.E.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	txEnd := start + l.SerializationTime(s.Len())
	l.busyUntil = txEnd
	if s.WireTime == 0 {
		s.WireTime = now
	}
	l.Sent.Inc()
	s.Stage("wire")
	arrival := txEnd + l.Delay
	if l.Jitter > 0 {
		arrival += sim.Time(l.rng.Intn(int(l.Jitter) + 1))
	}
	// No reordering on the wire: a frame can never overtake its
	// predecessor, even when a jitter fault reverts while jittered frames
	// are still in flight. The clamp must apply unconditionally — the
	// in-flight FIFO, the serial delivery events and the cross-shard
	// posted deliveries all rely on arrivals being monotone.
	if arrival < l.lastArrival {
		arrival = l.lastArrival
	}
	l.lastArrival = arrival
	lost := l.LossRate > 0 && l.rng.Float64() < l.LossRate
	f := wireFrame{s: s, at: arrival, key: l.E.Stamp(), lost: lost}
	if l.Remote != nil && !lost {
		// Cross-shard wire: the receiving shard owns live frames from
		// here on, so the in-flight ring keeps the SKB pointer only for
		// lost frames (disposed locally, at the same simulated time and
		// drop site as the serial path). The arrival slot still runs for
		// every frame to retire the serializer queue in FIFO order.
		f.s = nil
		l.Remote.Send(s, arrival)
	}
	l.inflight.Push(f)
	if l.inflight.Len() == 1 {
		l.arrival.SetKey(0, f.at, f.key)
	}
	return true
}

// wireFrame is one frame in flight on a link, with its arrival time and
// the tie-break key stamped when it was sent.
type wireFrame struct {
	s    *skb.SKB
	at   sim.Time
	key  sim.Key
	lost bool
}

// pop retires the head-of-wire frame from the serializer queue, sets the
// arrival slot to the next head, and disposes the frame if the wire lost
// it. It returns the frame to deliver: nil when lost, and always nil for
// a cross-shard link, whose live frames the receiving shard delivers
// (the cluster scheduled it at the same nanosecond).
func (l *Link) pop() *skb.SKB {
	f := l.inflight.Pop()
	if l.inflight.Len() > 0 {
		h := l.inflight.Peek()
		l.arrival.SetKey(0, h.at, h.key)
	}
	if f.lost {
		l.Lost.Inc()
		f.s.Drop(skb.DropLinkLoss)
		return nil
	}
	return f.s
}

// arrive is the arrival slot's callback: the head-of-wire frame reaches
// the far end.
func (l *Link) arrive(int) {
	if s := l.pop(); s != nil && l.Deliver != nil {
		l.Deliver(s)
	}
}

// Busy reports whether the serializer is still putting an earlier frame
// on the wire, so a frame sent now would queue behind it.
func (l *Link) Busy() bool { return l.busyUntil > l.E.Now() }
