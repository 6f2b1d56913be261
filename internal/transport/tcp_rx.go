package transport

import (
	"falcon/internal/cpu"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/skb"
)

// onData runs in softirq context on the receiver when a data segment (or
// a GRO super-segment) reaches tcp_v4_rcv. It reassembles the byte
// stream, delivers in-order data to the socket, and emits ACKs: delayed
// for in-order arrivals, immediate duplicates for out-of-order ones.
func (c *Conn) onData(core *cpu.Core, s *skb.SKB, f *proto.Frame, done func()) {
	if c.closed {
		s.Drop(skb.DropTCPClosed)
		done()
		return
	}
	// Reconstruct the 64-bit stream offset from the 32-bit header field
	// (transfer volumes in the experiments stay below 2^32, so the low
	// bits identify the segment uniquely).
	seq := uint64(f.TCP.Seq)
	segLen := uint64(f.PayloadLen())

	switch {
	case seq == c.rcvNxt:
		// The socket owns s once delivered; read Segs first.
		segs := s.Segs
		c.rcvNxt += segLen
		c.deliver(core, s, segLen)
		// Drain any buffered continuation.
		for {
			nxt, ok := c.oooSegs[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.oooSegs, c.rcvNxt)
			nf, err := nxt.Frame()
			if err != nil {
				break
			}
			c.rcvNxt += uint64(nf.PayloadLen())
			c.deliver(core, nxt, uint64(nf.PayloadLen()))
		}
		c.ackEvery += segs
		if c.ackEvery >= 2 {
			c.sendAck(core, false)
		} else {
			c.armDelayedAck(core)
		}
	case seq > c.rcvNxt:
		// Out of order: buffer and signal the gap with a duplicate ACK.
		if _, dup := c.oooSegs[seq]; !dup {
			c.oooSegs[seq] = s
		} else {
			s.Drop(skb.DropTCPDup)
		}
		c.sendAck(core, true)
	default:
		// Duplicate of already-received data (spurious retransmit):
		// re-ACK so the sender advances.
		s.Drop(skb.DropTCPDup)
		c.sendAck(core, true)
	}
	done()
}

// deliver hands an in-order segment to the receiver socket. skb.Seq is
// rewritten to the stream offset so per-flow ordering checks hold.
func (c *Conn) deliver(core *cpu.Core, s *skb.SKB, payload uint64) {
	s.FlowID = c.cfg.FlowID
	s.Seq = c.rcvNxt
	c.SegsDelivered.Add(uint64(s.Segs))
	c.BytesAssembled.Add(payload)
	c.sock.Deliver(core, s)
}

// armDelayedAck schedules a flush ACK so a lone segment is still
// acknowledged promptly (the kernel's delayed-ACK timer).
func (c *Conn) armDelayedAck(core *cpu.Core) {
	if c.timers.IsSet(slotAck) {
		return
	}
	c.ackCore = core.ID()
	c.timers.Set(slotAck, c.e.Now()+delayedAckTimeout)
}

// onDelayedAck fires when the delayed-ACK timer expires. Close cancels
// the timer, so it never fires on a closed connection.
func (c *Conn) onDelayedAck() {
	if c.ackEvery > 0 {
		c.sendAck(c.cfg.ReceiverHost.M.Core(c.ackCore), false)
	}
}

// sendAck emits a cumulative ACK for rcvNxt from softirq context on the
// receiver, traversing the full (overlay) transmit path back to the
// sender.
func (c *Conn) sendAck(core *cpu.Core, immediate bool) {
	c.ackEvery = 0
	c.timers.Clear(slotAck)
	c.AcksSent.Inc()
	hdr := proto.TCPHdr{
		SrcPort: c.cfg.DstPort,
		DstPort: c.cfg.SrcPort,
		Seq:     0,
		Ack:     uint32(c.rcvNxt),
		Flags:   proto.TCPAck,
		Window:  65535,
	}
	c.cfg.ReceiverHost.SendTCP(overlay.SendParams{
		From:        c.cfg.ReceiverCtr,
		DstIP:       c.srcIP,
		Payload:     0,
		Core:        core.ID(),
		FlowID:      c.cfg.FlowID | 1<<63, // ack stream, distinct flow id
		FromSoftirq: true,
	}, hdr)
}

// onAck runs in softirq context on the sender when an ACK returns.
// Congestion control follows Reno: slow start below ssthresh, additive
// increase above it, fast retransmit + window halving on the third
// duplicate ACK.
func (c *Conn) onAck(core *cpu.Core, s *skb.SKB, f *proto.Frame, done func()) {
	if c.closed {
		s.Drop(skb.DropTCPClosed)
		done()
		return
	}
	ack := c.reconstructAck(uint64(f.TCP.Ack))
	s.Stage("tcp-ack")
	s.Free() // pure ACK: nothing downstream holds the frame
	switch {
	case ack > c.sndUna:
		c.sndUna = ack
		c.dupAcks = 0
		if c.sndUna > c.sndNxt {
			// A pre-rewind transmission was acknowledged after an RTO
			// rolled sndNxt back: the receiver already has that data.
			c.sndNxt = c.sndUna
		}
		if c.inFastRec {
			if ack >= c.recover {
				c.inFastRec = false
				c.cwnd = c.ssthresh
			} else {
				// NewReno partial ACK: the window held more than one
				// hole; retransmit the next one immediately instead of
				// waiting out an RTO.
				c.transmit(c.sndUna, true, nil)
			}
		}
		if !c.inFastRec {
			if c.cwnd < c.ssthresh {
				c.cwnd++ // slow start: +1 segment per ACK
			} else {
				c.cwnd += 1 / c.cwnd // congestion avoidance
			}
			if c.cwnd > MaxCwnd {
				c.cwnd = MaxCwnd
			}
		}
		if c.sndUna == c.sndNxt {
			c.timers.Clear(slotRTO) // everything acknowledged
		} else if c.sndUna < c.sndNxt {
			c.armRTO()
		}
		c.updateRTT(ack)
		c.trySend()
	case ack == c.sndUna && c.sndNxt > c.sndUna:
		c.dupAcks++
		if c.dupAcks == dupAckThreshold && !c.inFastRec {
			// Fast retransmit: resend the missing segment, halve the
			// window, and remember the recovery point.
			c.inFastRec = true
			c.recover = c.sndNxt
			c.ssthresh = max(c.cwnd/2, 2)
			c.cwnd = c.ssthresh
			c.FastRetrans.Inc()
			c.transmit(c.sndUna, true, nil)
		}
	}
	// The pure-ACK processing cost was already charged by deliverL4's
	// tcp_v4_rcv step.
	done()
}

// reconstructAck lifts a 32-bit cumulative ACK into the 64-bit stream
// space around sndUna.
func (c *Conn) reconstructAck(ack32 uint64) uint64 {
	base := c.sndUna &^ 0xFFFFFFFF
	cand := base | ack32
	// Choose the candidate closest to sndUna that is plausible.
	if cand+1<<31 < c.sndUna {
		cand += 1 << 32
	}
	return cand
}
