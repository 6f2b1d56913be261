package workload

import (
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/socket"
)

// UDPFlow is one sockperf-style UDP sender/receiver pair.
type UDPFlow struct {
	tb *Testbed

	// FromCtr selects overlay mode (nil = host networking).
	FromCtr *overlay.Container
	DstIP   proto.IPv4Addr
	// SrcPort/DstPort form the flow identity; Size is the payload bytes.
	SrcPort, DstPort uint16
	Size             int
	// SendCore is the client core the sending task runs on; AppCore the
	// server core the receiving application is pinned to.
	SendCore, AppCore int
	// FlowID tags packets for order verification.
	FlowID uint64

	// Sock is the receiving socket (created by Open).
	Sock *socket.Socket

	udpSender
}

// udpSender is a UDPFlow's running sender. Flood or SendAtRate starts it
// once per flow; Clone makes a fresh one. gap is its slot, the gap
// before the next send, and floodNext Flood's cached send-completion
// callback.
type udpSender struct {
	seq       uint64
	stopped   bool
	rate      float64 // pps; 0 = flood
	until     sim.Time
	gap       sim.Slots
	floodNext func(ok bool)
	rng       sim.Rand
}

// newSender returns a fresh sender with its own fork of the testbed's RNG.
func (tb *Testbed) newSender() udpSender { return udpSender{rng: *tb.E.Rand().Fork()} }

// Open binds the receiving socket on the server.
func (f *UDPFlow) Open() *UDPFlow {
	f.Sock = f.tb.Server.OpenUDP(f.DstIP, f.DstPort, f.AppCore)
	return f
}

// NewUDPFlow builds (but does not start) a flow on the testbed. ctr may
// be nil for host networking; dst must match (container IP or ServerIP).
func (tb *Testbed) NewUDPFlow(ctr *overlay.Container, dst proto.IPv4Addr, srcPort, dstPort uint16, size, sendCore, appCore int, flowID uint64) *UDPFlow {
	f := &UDPFlow{
		tb: tb, FromCtr: ctr, DstIP: dst,
		SrcPort: srcPort, DstPort: dstPort, Size: size,
		SendCore: sendCore, AppCore: appCore, FlowID: flowID,
		udpSender: tb.newSender(),
	}
	return f.Open()
}

// Clone returns a second sender for the same flow (same 5-tuple and
// receiving socket) running on another client core — how multiple
// sender threads press a single flow without rebinding the port. The
// clone's sender is fresh, whatever state the original's is in.
func (f *UDPFlow) Clone(sendCore int, flowID uint64) *UDPFlow {
	c := *f
	c.SendCore = sendCore
	c.FlowID = flowID // distinct id keeps per-sender order checks valid
	c.udpSender = f.tb.newSender()
	return &c
}

// Stop halts the sender after in-flight work completes.
func (f *UDPFlow) Stop() { f.stopped = true }

// Sent returns how many packets the sender has emitted.
func (f *UDPFlow) Sent() uint64 { return f.seq }

// SetRate changes a running fixed-rate sender's rate (the hotspot
// generator uses this to create sudden intensity shifts, Fig. 16).
func (f *UDPFlow) SetRate(pps float64) { f.rate = pps }

func (f *UDPFlow) send(done func(ok bool)) {
	f.seq++
	f.tb.Client.SendUDP(overlay.SendParams{
		From: f.FromCtr, SrcPort: f.SrcPort, DstIP: f.DstIP, DstPort: f.DstPort,
		Payload: f.Size, Core: f.SendCore, FlowID: f.FlowID, Seq: f.seq,
		Done: done,
	})
}

// Flood sends back to back until `until`: each transmission starts when
// the previous one finishes, so the offered load is bounded only by the
// sender core — the sockperf stress shape (the paper uses 3 such
// clients to overload a single UDP server port). A sub-microsecond
// random gap between sends models real sender jitter; without it,
// identical senders phase-lock against full queues and deterministic
// drop patterns starve individual flows.
func (f *UDPFlow) Flood(until sim.Time) {
	// The gap before the next send is one slot of the engine's group, so
	// the send runs inline when nothing else comes first.
	f.until = until
	f.floodNext = f.floodDone
	f.gap = f.tb.Client.E.NewSlots(1, f.floodSend)
	f.send(f.floodNext)
}

func (f *UDPFlow) floodSend(int) { f.send(f.floodNext) }

// floodDone draws the gap before the next flood send.
func (f *UDPFlow) floodDone(bool) {
	e := f.tb.Client.E
	if f.stopped || e.Now() >= f.until {
		return
	}
	f.gap.Set(0, e.Now()+sim.Time(f.rng.Intn(200)))
}

// SendAtRate emits packets at the given average rate with Poisson
// arrivals until `until` (the underloaded/fixed-rate tests). The rate
// can be changed live via SetRate; Stop, or a rate of 0 or less, ends
// the sender at its next tick.
func (f *UDPFlow) SendAtRate(pps float64, until sim.Time) {
	// The gap before the next send is one slot of the engine's group,
	// reserved for this sender, as in Flood.
	f.rate, f.until = pps, until
	f.gap = f.tb.Client.E.NewSlots(1, f.rateTick)
	f.rateTick(0)
}

// rateTick sends one packet and draws the Poisson gap to the next.
func (f *UDPFlow) rateTick(int) {
	e := f.tb.Client.E
	if f.stopped || e.Now() >= f.until || f.rate <= 0 {
		return
	}
	f.send(nil)
	f.gap.Set(0, e.Now()+PoissonArrivals{Rate: f.rate}.NextGap(&f.rng))
}

// StressFlood launches n flooding clients on distinct cores, all
// targeting the same server port — the paper's "3 sockperf clients to
// overload a UDP server" configuration. Returns the shared receiving
// socket.
func (tb *Testbed) StressFlood(overlayMode bool, clients, size, appCore int, until sim.Time) (*socket.Socket, []*UDPFlow) {
	dst := ServerIP
	var flows []*UDPFlow
	var sock *socket.Socket
	for i := 0; i < clients; i++ {
		var ctr *overlay.Container
		if overlayMode {
			ctr = tb.ClientCtrs[0]
			dst = tb.ServerCtrs[0].IP
		}
		fl := &UDPFlow{
			tb: tb, FromCtr: ctr, DstIP: dst,
			SrcPort: uint16(7000 + i), DstPort: 5001, Size: size,
			SendCore: 2 + i, AppCore: appCore, FlowID: uint64(i + 1),
			udpSender: tb.newSender(),
		}
		if sock == nil {
			fl.Open()
			sock = fl.Sock
		} else {
			fl.Sock = sock
		}
		fl.Flood(until)
		flows = append(flows, fl)
	}
	return sock, flows
}
