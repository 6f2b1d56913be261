// Package transport implements a simulated TCP on top of the overlay
// datapath: cumulative ACKs with delayed acking, slow start and AIMD
// congestion avoidance, fast retransmit on triple duplicate ACKs, and
// retransmission timeouts. Connections run entirely through the overlay's
// transmit and receive paths, so every data segment and every ACK pays
// the real per-device softirq costs — including VXLAN encapsulation in
// both directions, exactly as the paper's overlay TCP traffic does.
//
// Simplifications relative to a full TCP (documented in DESIGN.md): the
// three-way handshake is elided (connections start established, as the
// paper's steady-state measurements assume), segments equal the
// application message size (the testbed's jumbo-frame/GSO behaviour),
// and SACK is approximated by go-back-N from the fast-retransmit point.
package transport

import (
	"fmt"

	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/socket"
	"falcon/internal/stats"
)

// Connection parameters.
const (
	InitialCwnd       = 10  // segments (RFC 6928)
	MaxCwnd           = 256 // segments; stands in for the receive window
	DefaultRTO        = 10 * sim.Millisecond
	MinRTO            = 500 * sim.Microsecond
	MaxRTO            = sim.Second
	delayedAckTimeout = 200 * sim.Microsecond
	dupAckThreshold   = 3
)

// Config describes one unidirectional TCP data flow (data sender →
// receiver; ACKs flow back automatically).
type Config struct {
	Net *overlay.Network

	// Sender endpoint. Ctr nil means host networking.
	SenderHost *overlay.Host
	SenderCtr  *overlay.Container
	SenderCore int
	SrcPort    uint16

	// Receiver endpoint.
	ReceiverHost *overlay.Host
	ReceiverCtr  *overlay.Container
	AppCore      int
	DstPort      uint16

	// MsgSize is the application write (= segment payload) in bytes.
	MsgSize int

	// FlowID instruments measurement attribution.
	FlowID uint64
}

// Conn is an established TCP connection.
type Conn struct {
	cfg Config
	// e is the shard engine both endpoints live on. Conn state is
	// shared between the sender path (ACK processing, RTO) and the
	// receiver path (reassembly, delayed ACKs), so Dial requires the
	// two hosts to be colocated on one shard.
	e *sim.Engine

	srcIP, dstIP proto.IPv4Addr

	// Sender state (sequence space in bytes; no wraparound handling —
	// experiment transfer volumes stay far below 2^63).
	sndNxt    uint64
	sndUna    uint64
	cwnd      float64 // segments
	ssthresh  float64
	dupAcks   int
	inFastRec bool
	recover   uint64
	rto       sim.Time
	sent      func(ok bool) // c.onSent, bound once: trySend's continuation

	// RTT estimation (Jacobson/Karn): one timed segment at a time,
	// retransmissions never sampled.
	srtt, rttvar sim.Time
	sampling     bool
	sampleSeq    uint64
	sampleAt     sim.Time

	// Application send buffer in whole messages.
	pendingMsgs int
	continuous  bool
	sendActive  bool

	// Receiver state.
	rcvNxt   uint64
	oooSegs  map[uint64]*skb.SKB // seq → buffered out-of-order segment
	ackEvery int                 // delayed-ACK segment counter
	ackCore  int                 // the receiver core the delayed ACK goes out on
	sock     *socket.Socket

	// timers holds the retransmit (slotRTO) and delayed-ACK (slotAck)
	// timers, re-armed and cancelled in place as the kernel's per-socket
	// timer_lists are.
	timers sim.Slots

	// Diagnostics.
	Retransmits   stats.Counter
	FastRetrans   stats.Counter
	Timeouts      stats.Counter
	AcksSent      stats.Counter
	SegsDelivered stats.Counter
	// BytesAssembled is in-order payload handed to the application
	// (always equals rcvNxt: the stream never gaps).
	BytesAssembled stats.Counter

	closed bool
}

// Dial establishes the connection: binds both directions' L4 handlers
// and returns the conn ready to Send. appWork is extra per-message
// application processing at the receiver.
func Dial(cfg Config, appWork sim.Time) (*Conn, error) {
	if cfg.MsgSize <= 0 {
		return nil, fmt.Errorf("transport: MsgSize must be positive")
	}
	if cfg.SenderHost.E != cfg.ReceiverHost.E {
		return nil, fmt.Errorf("transport: TCP endpoints must be colocated on one shard (%s and %s live on different engines)",
			cfg.SenderHost.Name, cfg.ReceiverHost.Name)
	}
	c := &Conn{
		cfg:      cfg,
		e:        cfg.SenderHost.E,
		cwnd:     InitialCwnd,
		ssthresh: MaxCwnd,
		rto:      DefaultRTO,
		oooSegs:  make(map[uint64]*skb.SKB),
	}
	c.sent = c.onSent
	c.timers = c.e.NewSlots(2, c.onTimer)
	if cfg.SenderCtr != nil {
		c.srcIP = cfg.SenderCtr.IP
	} else {
		c.srcIP = cfg.SenderHost.IP
	}
	if cfg.ReceiverCtr != nil {
		c.dstIP = cfg.ReceiverCtr.IP
	} else {
		c.dstIP = cfg.ReceiverHost.IP
	}

	c.sock = socket.New(cfg.ReceiverHost.M, cfg.AppCore)
	c.sock.AppWork = appWork
	if cfg.ReceiverHost.OnSocketOpen != nil {
		cfg.ReceiverHost.OnSocketOpen(cfg.DstPort, c.sock)
	}

	// Data direction: receiver host demuxes (dstIP, DstPort, TCP).
	cfg.ReceiverHost.Bind(overlay.SockKey{IP: c.dstIP, Port: cfg.DstPort, Proto: proto.ProtoTCP},
		c.onData)
	// ACK direction: sender host demuxes (srcIP, SrcPort, TCP).
	cfg.SenderHost.Bind(overlay.SockKey{IP: c.srcIP, Port: cfg.SrcPort, Proto: proto.ProtoTCP},
		c.onAck)
	return c, nil
}

// Socket returns the receiver-side socket (latency/throughput metrics).
func (c *Conn) Socket() *socket.Socket { return c.sock }

// Cwnd returns the current congestion window in segments.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// Outstanding returns unacknowledged bytes in flight.
func (c *Conn) Outstanding() uint64 { return c.sndNxt - c.sndUna }

// Close tears the connection down (stops timers and sending).
func (c *Conn) Close() {
	c.closed = true
	c.continuous = false
	c.pendingMsgs = 0
	c.timers.Clear(slotRTO)
	c.timers.Clear(slotAck)
	// Buffered out-of-order segments will never be delivered.
	for seq, s := range c.oooSegs {
		delete(c.oooSegs, seq)
		s.Drop(skb.DropTCPClosed)
	}
	c.cfg.ReceiverHost.Unbind(overlay.SockKey{IP: c.dstIP, Port: c.cfg.DstPort, Proto: proto.ProtoTCP})
	c.cfg.SenderHost.Unbind(overlay.SockKey{IP: c.srcIP, Port: c.cfg.SrcPort, Proto: proto.ProtoTCP})
}

// Send queues n application messages for transmission.
func (c *Conn) Send(n int) {
	if c.closed {
		return
	}
	c.pendingMsgs += n
	c.trySend()
}

// StartContinuous switches the sender to bulk mode: the window is kept
// full indefinitely (the sockperf TCP throughput stress shape).
func (c *Conn) StartContinuous() {
	c.continuous = true
	c.trySend()
}

// windowBytes is the current usable window.
func (c *Conn) windowBytes() uint64 {
	w := uint64(c.cwnd) * uint64(c.cfg.MsgSize)
	return w
}

// trySend fills the window with queued messages. Transmissions chain
// through the sender core's task queue, so segments serialize naturally:
// each segment's Done (c.sent) sends the next.
func (c *Conn) trySend() {
	if c.closed || c.sendActive {
		return
	}
	if !c.continuous && c.pendingMsgs == 0 {
		return
	}
	if c.Outstanding()+uint64(c.cfg.MsgSize) > c.windowBytes() {
		return // window full; ACKs will reopen
	}
	c.sendActive = true
	seq := c.sndNxt
	c.sndNxt += uint64(c.cfg.MsgSize)
	if !c.continuous {
		c.pendingMsgs--
	}
	c.transmit(seq, false, c.sent)
}

// onSent is trySend's continuation once a segment has left the sender.
func (c *Conn) onSent(bool) {
	c.sendActive = false
	c.trySend()
}

// transmit emits one data segment starting at seq; done, if non-nil, is
// its SendParams.Done.
func (c *Conn) transmit(seq uint64, isRetrans bool, done func(ok bool)) {
	if isRetrans {
		// Karn's rule: a retransmission invalidates any in-flight sample
		// (the eventual ACK is ambiguous).
		c.sampling = false
	} else if !c.sampling {
		c.sampling = true
		c.sampleSeq = seq
		c.sampleAt = c.e.Now()
	}
	hdr := proto.TCPHdr{
		SrcPort: c.cfg.SrcPort,
		DstPort: c.cfg.DstPort,
		Seq:     uint32(seq),
		Flags:   proto.TCPAck | proto.TCPPsh,
		Window:  65535,
	}
	c.armRTO()
	c.cfg.SenderHost.SendTCP(overlay.SendParams{
		From:    c.cfg.SenderCtr,
		DstIP:   c.dstIP,
		Payload: c.cfg.MsgSize,
		Core:    c.cfg.SenderCore,
		FlowID:  c.cfg.FlowID,
		Seq:     seq,
		Done:    done,
	}, hdr)
	if isRetrans {
		c.Retransmits.Inc()
	}
}

// The connection's timers, slots of Conn.timers.
const (
	slotRTO = iota
	slotAck
)

// onTimer is the timers' callback.
func (c *Conn) onTimer(slot int) {
	if slot == slotRTO {
		c.onRTO()
	} else {
		c.onDelayedAck()
	}
}

// armRTO (re)starts the retransmission timer.
func (c *Conn) armRTO() {
	c.timers.Clear(slotRTO)
	c.timers.Set(slotRTO, c.e.Now()+c.rto)
}

// onRTO fires when the oldest segment went unacknowledged too long:
// collapse the window and go-back-N from sndUna. Close cancels the
// timer, so it never fires on a closed connection.
func (c *Conn) onRTO() {
	if c.sndUna == c.sndNxt {
		return
	}
	c.Timeouts.Inc()
	c.ssthresh = max(c.cwnd/2, 2)
	c.cwnd = 1
	c.dupAcks = 0
	c.inFastRec = false
	// Go-back-N: rewind sndNxt to the loss point; trySend re-sends.
	if !c.continuous {
		c.pendingMsgs += int(c.Outstanding()) / c.cfg.MsgSize
	}
	c.sndNxt = c.sndUna
	c.rto *= 2
	if c.rto > MaxRTO {
		c.rto = MaxRTO
	}
	c.sendActive = false
	c.trySend()
}

// updateRTT folds a timing sample into the smoothed estimators and
// recomputes the retransmission timeout (RFC 6298).
func (c *Conn) updateRTT(ack uint64) {
	if !c.sampling || ack <= c.sampleSeq {
		return
	}
	c.sampling = false
	sample := c.e.Now() - c.sampleAt
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < MinRTO {
		rto = MinRTO
	}
	if rto > MaxRTO {
		rto = MaxRTO
	}
	c.rto = rto
}

// SRTT returns the smoothed round-trip estimate (0 until sampled).
func (c *Conn) SRTT() sim.Time { return c.srtt }
