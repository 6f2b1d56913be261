package apps

import (
	"falcon/internal/overlay"
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// CloudSuite Data Caching parameters (paper Section 6.2): a memcached
// server with 550-byte objects, clients driving 100 connections with a
// Twitter-derived GET-heavy mix.
const (
	MemcachedValueSize   = 550
	MemcachedGetRequest  = 64 // GET <key>\r\n
	MemcachedSetOverhead = 80 // SET header around the value
	MemcachedGetRatio    = 0.9
	memcachedServerWork  = 2 * sim.Microsecond // hash lookup + LRU touch
)

// MemcachedConfig sizes a data-caching deployment.
type MemcachedConfig struct {
	// ServerHost/ServerCtr run memcached; ServerCores pin its worker
	// threads (the paper configures 4 threads), one shard port per core.
	ServerHost  *overlay.Host
	ServerCtr   *overlay.Container
	ServerCores []int
	Port        uint16

	// ClientHost/ClientCtr run the load generator.
	ClientHost *overlay.Host
	ClientCtr  *overlay.Container
	// ClientThreads spreads connections across this many client cores
	// starting at ClientCoreBase (the paper scales 1 → 10 threads).
	ClientThreads  int
	ClientCoreBase int
	// Connections total (the paper uses 100).
	Connections int
	// ThinkTime is the mean per-connection think time, which sets the
	// offered request rate.
	ThinkTime sim.Time
}

// Memcached is a running data-caching deployment.
type Memcached struct {
	Servers []*Server
	Conns   []*Conn

	// Gets/Sets count requests by type.
	Gets, Sets stats.Counter

	rng *sim.Rand
}

// StartMemcached deploys the server and starts all client connections,
// running until the given absolute time.
func StartMemcached(cfg MemcachedConfig, until sim.Time) *Memcached {
	m := &Memcached{rng: cfg.ServerHost.Net.E.Rand().Fork()}
	if len(cfg.ServerCores) == 0 {
		cfg.ServerCores = []int{0}
	}
	handle := func(req Request, respond func(int)) {
		// GETs (small request) return the object; SETs (large request)
		// return a brief stored-acknowledgement.
		if req.Size <= MemcachedGetRequest {
			m.Gets.Inc()
			respond(MemcachedValueSize)
		} else {
			m.Sets.Inc()
			respond(8)
		}
	}
	for i, core := range cfg.ServerCores {
		m.Servers = append(m.Servers, NewServer(cfg.ServerHost, cfg.ServerCtr,
			cfg.Port+uint16(i), core, memcachedServerWork, handle))
	}

	if cfg.Connections == 0 {
		cfg.Connections = 100
	}
	if cfg.ClientThreads == 0 {
		cfg.ClientThreads = 1
	}
	dstIP := cfg.ServerHost.IP
	if cfg.ServerCtr != nil {
		dstIP = cfg.ServerCtr.IP
	}
	for i := 0; i < cfg.Connections; i++ {
		core := cfg.ClientCoreBase + i%cfg.ClientThreads
		reqSize := func() int {
			if m.rng.Float64() < MemcachedGetRatio {
				return MemcachedGetRequest
			}
			return MemcachedValueSize + MemcachedSetOverhead
		}
		shard := cfg.Port + uint16(i%len(cfg.ServerCores))
		c := NewConn(uint64(1000+i), cfg.ClientHost, cfg.ClientCtr,
			uint16(20000+i), dstIP, shard, core, reqSize, cfg.ThinkTime)
		c.Start(until)
		m.Conns = append(m.Conns, c)
	}
	return m
}

// Latency merges all connections' round-trip histograms.
func (m *Memcached) Latency() stats.Summary {
	h := stats.NewHistogram()
	for _, c := range m.Conns {
		h.Merge(c.RTT)
	}
	return h.Summarize()
}

// Completed sums completed requests across connections.
func (m *Memcached) Completed() uint64 {
	var n uint64
	for _, c := range m.Conns {
		n += c.Completed.Value()
	}
	return n
}

// ResetLatency starts a fresh latency window: it clears the client-side
// round-trip histograms. Counters keep counting; a window's count is the
// difference of two reads.
func (m *Memcached) ResetLatency() {
	for _, c := range m.Conns {
		c.RTT.Reset()
	}
}
