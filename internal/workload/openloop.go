package workload

import (
	"math"

	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/socket"
)

// This file is the open-loop side of the workload package. The
// closed-loop generators (Flood, StressFlood, the RPC apps) adapt their
// send schedule to the datapath — a slow server throttles the offered
// load. Open-loop traffic does not: flows arrive by an external process,
// each carries a size drawn from a heavy-tailed distribution, and
// packets go out on the flows' own clocks regardless of how the network
// is coping. That is the regime where tail latency means something —
// queues grow because arrivals do not wait for service — and it is how
// the paper's memcached-style percentile claims have to be measured.

// Sampler draws positive values from a distribution. All randomness
// flows through the caller's sim.Rand, so draws are deterministic and
// shard-invariant.
type Sampler interface {
	Sample(r *sim.Rand) float64
	// Mean returns the analytic expectation (used to convert a target
	// offered load into a flow arrival rate).
	Mean() float64
}

// Pareto is the classic heavy-tailed size distribution:
// P(X > x) = (Xm/x)^Alpha for x >= Xm. Alpha <= 1 has infinite mean;
// the generators use Alpha in (1, 3] so offered load stays defined
// while the tail stays heavy.
type Pareto struct {
	Xm, Alpha float64
}

// Sample draws by inversion: Xm / U^(1/Alpha).
func (p Pareto) Sample(r *sim.Rand) float64 {
	for {
		u := 1 - r.Float64() // (0, 1]
		if u > 0 {
			return p.Xm / math.Pow(u, 1/p.Alpha)
		}
	}
}

// Mean returns Alpha·Xm/(Alpha-1); +Inf when Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Lognormal: ln X ~ N(Mu, Sigma²). Moderate Sigma gives the skewed,
// long-tailed flow-size mixes measured in datacenter traces.
type Lognormal struct {
	Mu, Sigma float64
}

// Sample draws exp(Mu + Sigma·Z) with Z standard normal.
func (l Lognormal) Sample(r *sim.Rand) float64 {
	return math.Exp(l.Mu + float64(l.Sigma*r.NormFloat64()))
}

// Mean returns exp(Mu + Sigma²/2).
func (l Lognormal) Mean() float64 {
	return math.Exp(l.Mu + float64(l.Sigma*l.Sigma/2))
}

// LognormalWithMean builds a Lognormal with the given expectation and
// shape: Mu = ln(mean) - Sigma²/2.
func LognormalWithMean(mean, sigma float64) Lognormal {
	return Lognormal{Mu: math.Log(mean) - float64(sigma*sigma/2), Sigma: sigma}
}

// Arrivals produces interarrival gaps for an open-loop arrival process.
// Implementations may be stateful (MMPP tracks its modulating chain);
// each generator owns one instance, never shared across RNG streams.
type Arrivals interface {
	NextGap(r *sim.Rand) sim.Time
}

// PoissonArrivals is the memoryless baseline: exponential gaps at Rate
// arrivals per second.
type PoissonArrivals struct {
	Rate float64
}

// NextGap draws one exponential interarrival gap.
func (p PoissonArrivals) NextGap(r *sim.Rand) sim.Time {
	g := sim.Time(r.ExpFloat64() * 1e9 / p.Rate)
	if g < 1 {
		g = 1
	}
	return g
}

// MMPP2 is a two-state Markov-modulated Poisson process: arrivals are
// Poisson at CalmRate or BurstRate per second, with exponentially
// distributed sojourns in each state. The result is bursty — the
// interarrival CV exceeds 1 — which is what stresses queues and tails
// in a way plain Poisson traffic cannot.
type MMPP2 struct {
	CalmRate, BurstRate float64
	// MeanCalm/MeanBurst are the expected sojourn times per state.
	MeanCalm, MeanBurst sim.Time

	started bool
	burst   bool
	left    sim.Time // remaining sojourn in the current state
}

// MeanRate returns the long-run arrival rate (sojourn-weighted).
func (m *MMPP2) MeanRate() float64 {
	tc, tb := float64(m.MeanCalm), float64(m.MeanBurst)
	return (float64(m.CalmRate*tc) + float64(m.BurstRate*tb)) / (tc + tb)
}

func (m *MMPP2) sojourn(r *sim.Rand) {
	mean := m.MeanCalm
	if m.burst {
		mean = m.MeanBurst
	}
	m.left = sim.Time(r.ExpFloat64() * float64(mean))
	if m.left < 1 {
		m.left = 1
	}
}

// NextGap advances the modulating chain and draws the gap to the next
// arrival. A gap can span state switches: the exponential remainder is
// redrawn at the new state's rate, which is exactly the competing-clock
// construction of an MMPP.
func (m *MMPP2) NextGap(r *sim.Rand) sim.Time {
	if !m.started {
		m.started = true
		m.burst = false
		m.sojourn(r)
	}
	var total sim.Time
	for {
		rate := m.CalmRate
		if m.burst {
			rate = m.BurstRate
		}
		gap := PoissonArrivals{Rate: rate}.NextGap(r)
		if gap <= m.left {
			m.left -= gap
			total += gap
			return total
		}
		// The state switches before the next arrival: consume the
		// sojourn remainder and keep drawing at the new rate.
		total += m.left
		m.burst = !m.burst
		m.sojourn(r)
	}
}

const (
	// openLoopBasePort is the first server port of an open-loop
	// population; flows map to ports by flow ID.
	openLoopBasePort = 6000
	// openLoopBaseFlowID offsets packet flow IDs so the population
	// cannot collide with explicitly configured flows.
	openLoopBaseFlowID = 10_000
)

// OpenLoopConfig describes a heavy-tailed open-loop flow population:
// flows arrive by Arrivals, each draws a size (packets) from FlowSize,
// and sends its packets at FlowRate with Poisson pacing. Thousands of
// short flows churn through the population during a run.
type OpenLoopConfig struct {
	Arrivals Arrivals
	FlowSize Sampler
	// PacketSize is the UDP payload per packet (bytes).
	PacketSize int
	// FlowRate is each live flow's send rate in packets/s.
	FlowRate float64
	// Ports spreads the population across that many server sockets
	// (openLoopBasePort onward).
	Ports int
	// SendCores are the client cores flows rotate over; AppCore is the
	// server core the receiving sockets pin to.
	SendCores []int
	AppCore   int
	// Ctr selects the overlay container pair (1-based); 0 sends over
	// the host network.
	Ctr int
}

func (cfg OpenLoopConfig) withDefaults() OpenLoopConfig {
	if cfg.PacketSize == 0 {
		cfg.PacketSize = 256
	}
	if cfg.FlowRate == 0 {
		cfg.FlowRate = 50_000
	}
	if cfg.Ports == 0 {
		cfg.Ports = 1
	}
	if len(cfg.SendCores) == 0 {
		cfg.SendCores = []int{2}
	}
	return cfg
}

// OfferedPPS returns the population's long-run offered packet rate
// λ_flows × E[size] for the given flow arrival rate.
func (cfg OpenLoopConfig) OfferedPPS(flowsPerSec float64) float64 {
	return flowsPerSec * cfg.FlowSize.Mean()
}

// OpenLoop is a running open-loop population.
type OpenLoop struct {
	tb  *Testbed
	cfg OpenLoopConfig
	// Socks are the receiving sockets (one per port).
	Socks []*socket.Socket

	from  *overlay.Container
	dstIP proto.IPv4Addr
	rng   *sim.Rand
	until sim.Time

	// arrival is the slot of the next flow arrival. Each olFlow owns one
	// slot too; a finished flow waits in free for the next arrival, so
	// the population reserves Peak()+1 slots however many flows churn.
	arrival sim.Slots
	free    []*olFlow

	nextID  uint64
	live    int
	peak    int
	started uint64
	done    uint64
	sent    uint64
	stopped bool
}

// StartOpenLoop opens the population's sockets and starts the arrival
// process. Arrivals stop at `until`; flows already live also stop
// sending then, so the run drains promptly even when the size
// distribution produced an enormous flow.
func (tb *Testbed) StartOpenLoop(cfg OpenLoopConfig, until sim.Time) *OpenLoop {
	cfg = cfg.withDefaults()
	ol := &OpenLoop{
		tb: tb, cfg: cfg, rng: tb.E.Rand().Fork(), until: until,
		dstIP: ServerIP,
	}
	if cfg.Ctr > 0 {
		ol.from = tb.ClientCtrs[cfg.Ctr-1]
		ol.dstIP = tb.ServerCtrs[cfg.Ctr-1].IP
	}
	for i := 0; i < cfg.Ports; i++ {
		ol.Socks = append(ol.Socks,
			tb.Server.OpenUDP(ol.dstIP, openLoopBasePort+uint16(i), cfg.AppCore))
	}
	ol.arrival = tb.Client.E.NewSlots(1, func(int) { ol.arrive() })
	ol.arrive()
	return ol
}

// Stop halts arrivals and live flows after in-flight work completes.
func (ol *OpenLoop) Stop() { ol.stopped = true }

// Sent returns packets emitted so far; Live the current live-flow
// count; Peak its high-water mark; Started/Finished the flow churn.
func (ol *OpenLoop) Sent() uint64     { return ol.sent }
func (ol *OpenLoop) Live() int        { return ol.live }
func (ol *OpenLoop) Peak() int        { return ol.peak }
func (ol *OpenLoop) Started() uint64  { return ol.started }
func (ol *OpenLoop) Finished() uint64 { return ol.done }

// arrive launches one flow and schedules the next arrival.
func (ol *OpenLoop) arrive() {
	e := ol.tb.Client.E
	if ol.stopped || e.Now() >= ol.until {
		return
	}
	size := int(ol.cfg.FlowSize.Sample(ol.rng))
	if size < 1 {
		size = 1
	}
	id := ol.nextID
	ol.nextID++
	var f *olFlow
	if n := len(ol.free); n > 0 {
		f, ol.free = ol.free[n-1], ol.free[:n-1]
	} else {
		f = new(olFlow)
		f.gap = e.NewSlots(1, func(int) { f.tick() })
	}
	*f = olFlow{
		ol:   ol,
		gap:  f.gap,
		id:   openLoopBaseFlowID + id,
		size: size,
		port: openLoopBasePort + uint16(id%uint64(ol.cfg.Ports)),
		// Source ports rotate over a wide range so the population
		// exercises many distinct 5-tuples (RSS spread, flow-cache
		// population) without ever colliding with a receive port.
		srcPort: uint16(20_000 + id%20_000),
		core:    ol.cfg.SendCores[id%uint64(len(ol.cfg.SendCores))],
		rng:     *ol.rng.Fork(),
	}
	ol.live++
	ol.started++
	if ol.live > ol.peak {
		ol.peak = ol.live
	}
	f.tick()
	ol.arrival.Set(0, e.Now()+ol.cfg.Arrivals.NextGap(ol.rng))
}

// olFlow is one live open-loop flow, or a finished one waiting in the
// population's free list; gap is its slot, the gap before its next send.
type olFlow struct {
	ol      *OpenLoop
	gap     sim.Slots
	id      uint64
	seq     uint64
	size    int
	port    uint16
	srcPort uint16
	core    int
	rng     sim.Rand
}

// tick sends the flow's next packet and schedules the one after, until
// the drawn size is exhausted or the population halts.
func (f *olFlow) tick() {
	ol := f.ol
	e := ol.tb.Client.E
	if ol.stopped || e.Now() >= ol.until {
		f.finish()
		return
	}
	f.seq++
	ol.sent++
	ol.tb.Client.SendUDP(overlay.SendParams{
		From: ol.from, SrcPort: f.srcPort, DstIP: ol.dstIP, DstPort: f.port,
		Payload: ol.cfg.PacketSize, Core: f.core, FlowID: f.id, Seq: f.seq,
	})
	if int(f.seq) >= f.size {
		f.finish()
		return
	}
	f.gap.Set(0, e.Now()+PoissonArrivals{Rate: ol.cfg.FlowRate}.NextGap(&f.rng))
}

// finish retires the flow to the free list.
func (f *olFlow) finish() {
	ol := f.ol
	ol.live--
	ol.done++
	ol.free = append(ol.free, f)
}
