// Package apps implements the paper's two real-world applications on top
// of the overlay: CloudSuite-style Data Caching (a memcached server and
// closed-loop clients replaying a GET/SET mix with 550-byte objects,
// Fig. 18) and Web Serving (a three-tier nginx/memcached/mysql stack
// serving an Elgg-like social-network operation mix to 200 users,
// Fig. 17). Both are built on a small UDP request/response RPC layer:
// every request and response traverses the full overlay datapath, so
// application latency directly reflects softirq behaviour.
package apps

import (
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/socket"
	"falcon/internal/stats"
)

// Request is what an RPC server handler receives.
type Request struct {
	// ConnID and Seq identify the request for correlation.
	ConnID uint64
	Seq    uint64
	// Size is the request payload length.
	Size int
	// SrcIP and SrcPort identify the requester for the response.
	SrcIP   proto.IPv4Addr
	SrcPort uint16
}

// Server is a UDP RPC server bound to a container port. The handler runs
// in the application's task context; calling respond sends the reply
// through the full transmit path.
type Server struct {
	Host *overlay.Host
	Ctr  *overlay.Container // nil = host networking
	Port uint16

	// MTU, when positive, fragments responses larger than it into
	// MTU-sized frames (a web page is many wire packets). The final
	// fragment carries the request's sequence number, so the client's
	// round trip covers the whole response (fragments of one flow
	// deliver in order).
	MTU int

	// Sock is the receiving socket (exposed for measurements).
	Sock *socket.Socket

	// Requests counts handled requests.
	Requests stats.Counter
}

// ServeFunc handles one request; it must eventually call respond exactly
// once (possibly asynchronously, e.g. after backend calls complete).
type ServeFunc func(req Request, respond func(respSize int))

// NewServer binds an RPC server. appCore pins the server thread;
// appWork is per-request CPU beyond the base application cost.
func NewServer(h *overlay.Host, ctr *overlay.Container, port uint16, appCore int, appWork sim.Time, handle ServeFunc) *Server {
	srv := &Server{Host: h, Ctr: ctr, Port: port}
	ip := h.IP
	if ctr != nil {
		ip = ctr.IP
	}
	srv.Sock = h.OpenUDP(ip, port, appCore)
	srv.Sock.AppWork = appWork
	srv.Sock.OnDeliver = func(s *skb.SKB) {
		f, err := s.Frame()
		if err != nil {
			return
		}
		srv.Requests.Inc()
		req := Request{
			ConnID:  s.FlowID,
			Seq:     s.Seq,
			Size:    f.PayloadLen(),
			SrcIP:   f.IP.Src,
			SrcPort: f.SrcPort(),
		}
		handle(req, func(respSize int) {
			send := func(size int, seq uint64) {
				h.SendUDP(overlay.SendParams{
					From: ctr, SrcPort: port,
					DstIP: req.SrcIP, DstPort: req.SrcPort,
					Payload: size, Core: appCore,
					FlowID: req.ConnID, Seq: seq,
				})
			}
			if srv.MTU > 0 {
				for respSize > srv.MTU {
					send(srv.MTU, 0) // filler fragments: seq 0 is ignored
					respSize -= srv.MTU
				}
			}
			send(respSize, req.Seq)
		})
	}
	return srv
}

// Conn is one closed-loop RPC client connection: it keeps exactly one
// request outstanding, recording round-trip latency per response, and
// issues the next request after an exponentially distributed think time.
type Conn struct {
	ID   uint64
	host *overlay.Host
	ctr  *overlay.Container
	port uint16 // local port (also the demux key for responses)

	dstIP   proto.IPv4Addr
	dstPort uint16
	core    int // client-side core for both sending and receiving

	// NextRequest picks the next request's payload size and expected
	// response handling; nil uses FixedRequest semantics.
	nextReq func() int

	think   sim.Time
	rng     *sim.Rand
	e       *sim.Engine
	until   sim.Time
	stopped bool
	timers  sim.Slots // slotNext, the think gap, and slotRetry

	seq      uint64
	size     int // the outstanding request's payload size
	sentAt   sim.Time
	inflight bool

	// RTT is the per-response round-trip histogram; Completed counts
	// responses received.
	RTT       *stats.Histogram
	Completed stats.Counter
	// Retries counts request retransmissions after the retry timeout
	// (requests or responses dropped under overload would otherwise
	// deadlock the closed loop).
	Retries stats.Counter
	// OnResponse, if set, runs when a response arrives (before the next
	// request is scheduled).
	OnResponse func(rtt sim.Time)
}

// NewConn builds a closed-loop connection. reqSize is called per request
// for the payload size; think is the mean think time between responses
// and next requests.
func NewConn(id uint64, h *overlay.Host, ctr *overlay.Container, localPort uint16, dstIP proto.IPv4Addr, dstPort uint16, core int, reqSize func() int, think sim.Time) *Conn {
	c := &Conn{
		ID: id, host: h, ctr: ctr, port: localPort,
		dstIP: dstIP, dstPort: dstPort, core: core,
		nextReq: reqSize, think: think,
		rng: h.Net.E.Rand().Fork(), e: h.E,
		RTT: stats.NewHistogram(),
	}
	ip := h.IP
	if ctr != nil {
		ip = ctr.IP
	}
	sock := h.OpenUDP(ip, localPort, core)
	sock.OnDeliver = c.onResponse
	c.timers = h.E.NewSlots(2, c.onTimer)
	return c
}

// The connection's timers, slots of Conn.timers: the think gap before
// the next request, and the outstanding request's retry timeout.
const (
	slotNext = iota
	slotRetry
)

// onTimer is the timers' callback. A response cancels the retry
// timeout, so when it fires the request is still outstanding.
func (c *Conn) onTimer(slot int) {
	switch {
	case slot == slotNext:
		c.sendNext()
	case !c.stopped:
		c.Retries.Inc()
		c.transmit()
	}
}

// Start begins the request loop until the given absolute time.
func (c *Conn) Start(until sim.Time) {
	c.until = until
	c.sendNext()
}

// Stop halts the loop.
func (c *Conn) Stop() { c.stopped = true }

// retryTimeout bounds how long a request stays unanswered before the
// client resends it (requests are idempotent reads/stores).
const retryTimeout = 30 * sim.Millisecond

func (c *Conn) sendNext() {
	if c.stopped || c.e.Now() >= c.until || c.inflight {
		return
	}
	c.inflight = true
	c.seq++
	c.size = c.nextReq()
	c.transmit()
}

// transmit sends the outstanding request and arms its retry timeout.
func (c *Conn) transmit() {
	c.sentAt = c.e.Now()
	c.host.SendUDP(overlay.SendParams{
		From: c.ctr, SrcPort: c.port,
		DstIP: c.dstIP, DstPort: c.dstPort,
		Payload: c.size, Core: c.core,
		FlowID: c.ID, Seq: c.seq,
	})
	c.timers.Set(slotRetry, c.e.Now()+retryTimeout)
}

func (c *Conn) onResponse(s *skb.SKB) {
	if s.Seq != c.seq || !c.inflight {
		return // stale or duplicate response
	}
	c.inflight = false
	c.timers.Clear(slotRetry)
	rtt := c.e.Now() - c.sentAt
	c.RTT.Record(int64(rtt))
	c.Completed.Inc()
	if c.OnResponse != nil {
		c.OnResponse(rtt)
	}
	gap := sim.Time(1)
	if c.think > 0 {
		gap = sim.Time(c.rng.ExpFloat64() * float64(c.think))
		if gap < 1 {
			gap = 1
		}
	}
	c.timers.Set(slotNext, c.e.Now()+gap)
}
