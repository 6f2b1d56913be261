package apps

import (
	"falcon/internal/costmodel"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

// WebOp is one Elgg operation type in the CloudSuite Web Serving mix.
type WebOp struct {
	Name string
	// ReqSize uniquely identifies the operation on the wire.
	ReqSize int
	// CacheCalls and DBCalls are backend RPCs the web tier performs.
	CacheCalls, DBCalls int
	// ServerWork is web-tier CPU per operation.
	ServerWork sim.Time
	// RespSize is the page/fragment returned.
	RespSize int
	// Target is the expected completion time; the benchmark's "delay
	// time" is how far beyond it an operation finishes.
	Target sim.Time
	// Weight sets the operation's share of the mix.
	Weight float64
}

// ElggOps is the operation mix (shapes follow the CloudSuite Web Serving
// benchmark's Elgg actions the paper reports in Fig. 17).
var ElggOps = []WebOp{
	{Name: "BrowsetoElgg", ReqSize: 200, CacheCalls: 3, DBCalls: 1, ServerWork: 300 * sim.Microsecond, RespSize: 36000, Target: 2 * sim.Millisecond, Weight: 0.30},
	{Name: "Login", ReqSize: 220, CacheCalls: 1, DBCalls: 2, ServerWork: 200 * sim.Microsecond, RespSize: 12000, Target: 1500 * sim.Microsecond, Weight: 0.10},
	{Name: "CheckActivity", ReqSize: 240, CacheCalls: 2, DBCalls: 1, ServerWork: 150 * sim.Microsecond, RespSize: 18000, Target: 1500 * sim.Microsecond, Weight: 0.25},
	{Name: "SendChatMessage", ReqSize: 260, CacheCalls: 1, DBCalls: 1, ServerWork: 100 * sim.Microsecond, RespSize: 3600, Target: sim.Millisecond, Weight: 0.15},
	{Name: "UpdateActivity", ReqSize: 280, CacheCalls: 1, DBCalls: 2, ServerWork: 250 * sim.Microsecond, RespSize: 6000, Target: 2 * sim.Millisecond, Weight: 0.10},
	{Name: "PostSelfWall", ReqSize: 300, CacheCalls: 2, DBCalls: 2, ServerWork: 350 * sim.Microsecond, RespSize: 9000, Target: 2500 * sim.Microsecond, Weight: 0.10},
}

// Caller issues correlated backend RPCs (web tier → cache/db tiers) with
// any number outstanding.
type Caller struct {
	host    *overlay.Host
	ctr     *overlay.Container
	port    uint16
	core    int
	seq     uint64
	pending map[uint64]func()
}

// NewCaller binds the backend-call socket on the web container.
func NewCaller(h *overlay.Host, ctr *overlay.Container, localPort uint16, core int) *Caller {
	ca := &Caller{host: h, ctr: ctr, port: localPort, core: core,
		pending: make(map[uint64]func())}
	ip := h.IP
	if ctr != nil {
		ip = ctr.IP
	}
	sock := h.OpenUDP(ip, localPort, core)
	sock.OnDeliver = func(s *skb.SKB) {
		if cb, ok := ca.pending[s.Seq]; ok {
			delete(ca.pending, s.Seq)
			cb()
		}
	}
	return ca
}

// Call sends one request and invokes cb when the response arrives.
func (ca *Caller) Call(dstIP proto.IPv4Addr, dstPort uint16, size int, cb func()) {
	ca.seq++
	ca.pending[ca.seq] = cb
	ca.host.SendUDP(overlay.SendParams{
		From: ca.ctr, SrcPort: ca.port,
		DstIP: dstIP, DstPort: dstPort,
		Payload: size, Core: ca.core,
		FlowID: uint64(ca.port), Seq: ca.seq,
	})
}

// WebConfig sizes the three-tier deployment.
type WebConfig struct {
	// Server-side tiers (all containers on ServerHost, as in the paper:
	// web server workers on their own cores — pm.max_children-style
	// worker pool — and cache and database on two separate cores).
	ServerHost              *overlay.Host
	WebCtr, CacheCtr, DBCtr *overlay.Container
	WebCores                []int
	CacheCore, DBCore       int

	// WorkScale multiplies every operation's web-tier CPU work
	// (1.0 = the ElggOps defaults).
	WorkScale float64

	// Client side.
	ClientHost *overlay.Host
	ClientCtr  *overlay.Container
	// Users is the closed-loop client population (paper: 200).
	Users int
	// ClientCores spreads users across client cores.
	ClientCores []int
	// ThinkTime is the mean user think time between operations.
	ThinkTime sim.Time
}

// OpStats accumulates per-operation results.
type OpStats struct {
	Op        WebOp
	Completed stats.Counter
	Resp      *stats.Histogram // response time
	Delay     *stats.Histogram // max(0, response - target)
}

// Web is a running web-serving deployment.
type Web struct {
	cfg   WebConfig
	Stats []*OpStats
	Conns []*Conn

	cacheSrv, dbSrv *Server
	webSrvs         []*Server
}

const (
	webPort   = 80
	cachePort = 11211
	dbPort    = 3306
)

// StartWeb deploys all tiers and starts the user population, running
// until the given absolute time.
func StartWeb(cfg WebConfig, until sim.Time) *Web {
	w := &Web{cfg: cfg}
	for _, op := range ElggOps {
		w.Stats = append(w.Stats, &OpStats{
			Op: op, Resp: stats.NewHistogram(), Delay: stats.NewHistogram(),
		})
	}

	// Backend tiers: fixed small responses (cache hit / row fetch).
	w.cacheSrv = NewServer(cfg.ServerHost, cfg.CacheCtr, cachePort, cfg.CacheCore,
		2*sim.Microsecond, func(req Request, respond func(int)) { respond(512) })
	w.dbSrv = NewServer(cfg.ServerHost, cfg.DBCtr, dbPort, cfg.DBCore,
		10*sim.Microsecond, func(req Request, respond func(int)) { respond(1024) })

	// Web tier: a pool of workers, each pinned to a core with its own
	// backend-call socket. Workers look the operation up by request
	// size, run its backend chain, then respond with the page.
	if len(cfg.WebCores) == 0 {
		cfg.WebCores = []int{0}
	}
	if cfg.WorkScale == 0 {
		cfg.WorkScale = 1
	}
	w.cfg = cfg
	for i, core := range cfg.WebCores {
		core := core
		caller := NewCaller(cfg.ServerHost, cfg.WebCtr, uint16(8081+i), core)
		srv := NewServer(cfg.ServerHost, cfg.WebCtr,
			webPort+uint16(i), core, 0,
			func(req Request, respond func(int)) {
				op := opBySize(req.Size)
				if op == nil {
					respond(64)
					return
				}
				w.runOp(caller, core, *op, respond)
			})
		srv.MTU = 1400 // pages leave as MTU-sized wire packets
		w.webSrvs = append(w.webSrvs, srv)
	}

	// User population.
	if cfg.Users == 0 {
		cfg.Users = 200
	}
	if len(cfg.ClientCores) == 0 {
		cfg.ClientCores = []int{2, 3, 4}
	}
	rng := cfg.ServerHost.Net.E.Rand().Fork()
	for u := 0; u < cfg.Users; u++ {
		core := cfg.ClientCores[u%len(cfg.ClientCores)]
		var current *OpStats
		pick := func() int {
			current = w.pickOp(rng)
			return current.Op.ReqSize
		}
		worker := webPort + uint16(u%len(cfg.WebCores))
		c := NewConn(uint64(5000+u), cfg.ClientHost, cfg.ClientCtr,
			uint16(30000+u), cfg.WebCtr.IP, worker, core, pick, cfg.ThinkTime)
		cur := &current
		c.OnResponse = func(rtt sim.Time) {
			st := *cur
			if st == nil {
				return
			}
			st.Completed.Inc()
			st.Resp.Record(int64(rtt))
			d := rtt - st.Op.Target
			if d < 0 {
				d = 0
			}
			st.Delay.Record(int64(d))
		}
		c.Start(until)
		w.Conns = append(w.Conns, c)
	}
	return w
}

// runOp executes the web-tier work for one operation: the backend calls
// in sequence (cache first, then database), then the CPU work, then the
// response — the shape of a PHP page render.
func (w *Web) runOp(caller *Caller, core int, op WebOp, respond func(int)) {
	cacheLeft, dbLeft := op.CacheCalls, op.DBCalls
	var step func()
	step = func() {
		switch {
		case cacheLeft > 0:
			cacheLeft--
			caller.Call(w.cfg.CacheCtr.IP, cachePort, 96, step)
		case dbLeft > 0:
			dbLeft--
			caller.Call(w.cfg.DBCtr.IP, dbPort, 256, step)
		default:
			// Template rendering: real CPU time on the worker's core, so
			// a saturated web tier backs up like a real PHP worker pool.
			work := sim.Time(float64(op.ServerWork) * w.cfg.WorkScale)
			w.cfg.ServerHost.M.Core(core).Submit(
				stats.CtxTask, costmodel.FnAppWork, work,
				func() { respond(op.RespSize) })
		}
	}
	step()
}

func (w *Web) pickOp(rng *sim.Rand) *OpStats {
	r := rng.Float64()
	acc := 0.0
	for _, st := range w.Stats {
		acc += st.Op.Weight
		if r < acc {
			return st
		}
	}
	return w.Stats[len(w.Stats)-1]
}

func opBySize(size int) *WebOp {
	for i := range ElggOps {
		if ElggOps[i].ReqSize == size {
			return &ElggOps[i]
		}
	}
	return nil
}

// ResetLatency starts a fresh latency window: it clears the per-op
// response and delay histograms. Completed keeps counting; a window's
// count is the difference of two reads.
func (w *Web) ResetLatency() {
	for _, st := range w.Stats {
		st.Resp.Reset()
		st.Delay.Reset()
	}
}
