// Package socket models the top of the receive path: per-socket receive
// queues with rmem limits, the user-space copy, application wakeups, and
// the delivery-order and latency instrumentation the experiments read.
// It is where the paper's "core-2" bottleneck lives: copying received
// packets to user space and running the application thread, which bounds
// both host and Falcon throughput in the single-flow UDP stress test
// (Fig. 11).
package socket

import (
	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

// DefaultRcvBuf is the receive queue limit in packets (a stand-in for
// net.core.rmem_default's byte budget).
const DefaultRcvBuf = 1024

// Socket is a receiving endpoint bound to an application thread pinned
// on one core.
type Socket struct {
	m *cpu.Machine

	// AppCore is the core the consuming application thread runs on.
	AppCore int
	// AppWork is extra per-message application processing beyond the
	// model's base app cost (0 for sink-style benchmarks).
	AppWork sim.Time
	// OnDeliver, if non-nil, runs in task context when the application
	// consumes a message (used by memcached/web servers to respond).
	OnDeliver func(s *skb.SKB)

	rcvQ      *skb.Queue
	appActive bool

	// cur is the message currently being copied/processed by the app
	// thread; copyDone/workDone are the cached consume-loop continuations
	// (made at the first delivery) so steady-state consumption allocates
	// nothing.
	cur      *skb.SKB
	copyDone func()
	workDone func()

	// Measurements.
	Latency     *stats.Histogram // wire-to-application per original packet
	Delivered   stats.Counter    // original packets (GRO segments) consumed
	Bytes       stats.Counter    // payload bytes consumed
	SocketDrops stats.Counter    // packets rejected by a full receive queue
	// Consumed counts skbs (not GRO-expanded segments) handed to the
	// application — the audit ledger's unit, where Delivered counts
	// segments.
	Consumed stats.Counter

	// Order verification: highest Seq consumed per FlowID (made at the
	// first delivery).
	lastSeq    map[uint64]uint64
	OrderViols uint64
}

// New returns a socket on machine m consumed by a thread on appCore.
func New(m *cpu.Machine, appCore int) *Socket {
	return &Socket{
		m:       m,
		AppCore: appCore,
		rcvQ:    skb.NewQueue(DefaultRcvBuf),
		Latency: stats.NewHistogram(),
	}
}

// startConsumer makes the consume loop's continuations and the order
// check's map, at the socket's first delivery.
func (sk *Socket) startConsumer() {
	core := sk.m.Core(sk.AppCore)
	sk.copyDone = func() {
		work := sk.m.Model.Cost(costmodel.FnAppWork, 0) + sk.AppWork
		core.Submit(stats.CtxTask, costmodel.FnAppWork, work, sk.workDone)
	}
	sk.workDone = func() {
		s := sk.cur
		sk.cur = nil
		sk.account(s)
		if sk.OnDeliver != nil {
			sk.OnDeliver(s)
		}
		s.Stage("delivered")
		s.Free()
		sk.consumeNext()
	}
	sk.lastSeq = make(map[uint64]uint64)
}

// QueueLen returns the current receive-queue depth.
func (sk *Socket) QueueLen() int { return sk.rcvQ.Len() }

// RcvQueue exposes the receive queue for audit registration.
func (sk *Socket) RcvQueue() *skb.Queue { return sk.rcvQ }

// Deliver is called from softirq context (on core c) when the protocol
// stack hands a packet to the socket. It charges the socket-delivery
// cost, enqueues, and wakes the application thread. It reports false on
// a full receive queue (packet dropped).
func (sk *Socket) Deliver(c *cpu.Core, s *skb.SKB) bool {
	if !sk.rcvQ.Enqueue(s) {
		sk.SocketDrops.Inc()
		s.Drop(skb.DropSockOverflow)
		return false
	}
	s.Stage("sock-queue")
	sk.wakeApp(c)
	return true
}

// wakeApp schedules the application consume loop on the app core. A
// cross-core wakeup from softirq context is what the RES rescheduling
// IPIs in the paper's Fig. 4 are.
func (sk *Socket) wakeApp(c *cpu.Core) {
	if sk.appActive {
		return
	}
	sk.appActive = true
	if sk.copyDone == nil {
		sk.startConsumer()
	}
	if c != nil && c.ID() != sk.AppCore {
		sk.m.IRQ.Inc(sk.AppCore, stats.IRQRES)
	}
	sk.consumeNext()
}

// consumeNext runs one recvmsg iteration: copy one message to user space
// and do the application's per-message work, then loop while the queue
// is non-empty.
func (sk *Socket) consumeNext() {
	s := sk.rcvQ.Dequeue()
	if s == nil {
		sk.appActive = false
		return
	}
	core := sk.m.Core(sk.AppCore)
	copyCost := sk.m.Model.Cost(costmodel.FnUserCopy, s.Len())
	if s.Touch(sk.AppCore) {
		// Cache-cold packet: the locality penalty scales with how many
		// cores handled the packet before the copy (paper Section 6.3).
		copyCost += sim.Time(s.Migrations) * sk.m.Model.Migration()
	}
	sk.cur = s
	core.Submit(stats.CtxTask, costmodel.FnUserCopy, copyCost, sk.copyDone)
}

func (sk *Socket) account(s *skb.SKB) {
	now := sk.m.E.Now()
	s.Delivered = now
	// End-to-end latency origin: the sender's SendUDP/SendTCP entry when
	// stamped (counts sender-side CPU queueing and tx-path stalls), else
	// the NIC wire-out time for frames injected below the overlay API.
	origin := s.WireTime
	if s.SendTime != 0 {
		origin = s.SendTime
	}
	lat := int64(now - origin)
	segs := s.Segs
	if segs < 1 {
		segs = 1
	}
	for i := 0; i < segs; i++ {
		sk.Latency.Record(lat)
	}
	sk.Delivered.Add(uint64(segs))
	sk.Consumed.Inc()
	sk.Bytes.Add(uint64(s.Len()))
	if last, ok := sk.lastSeq[s.FlowID]; ok && s.Seq <= last {
		sk.OrderViols++
	}
	sk.lastSeq[s.FlowID] = s.Seq
}
