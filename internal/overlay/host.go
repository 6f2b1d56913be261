package overlay

import (
	"fmt"

	falconcore "falcon/internal/core"
	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/devices"
	"falcon/internal/netdev"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/socket"
	"falcon/internal/stats"
	"falcon/internal/steering"
)

// SockKey identifies an L4 delivery target.
type SockKey struct {
	IP    proto.IPv4Addr
	Port  uint16
	Proto uint8
}

// L4Handler terminates the receive path for one bound endpoint. It runs
// in softirq context and must call done exactly once. The L4 protocol
// cost (udp_rcv / tcp_v4_rcv) has already been charged. f points into
// s's parsed-header cache and is valid only until s is freed or its
// data replaced.
type L4Handler func(c *cpu.Core, s *skb.SKB, f *proto.Frame, done func())

// HostConfig sizes a host.
type HostConfig struct {
	Name string
	IP   proto.IPv4Addr
	// Cores is the machine size (the paper's servers: 20 physical cores).
	Cores int
	// RSSCores are the cores NIC queues are affined to.
	RSSCores []int
	// RPSCores is the rps_cpus mask (empty disables RPS).
	RPSCores []int
	// GRO enables pNIC GRO; InnerGRO enables gro_cells GRO on decap.
	GRO, InnerGRO bool
	// Kernel selects the cost profile ("linux-4.19" default, "linux-5.4").
	Kernel string
	// Shard selects which PDES shard (logical process) the host lives
	// on when the network runs on a sim.Cluster; every event the host's
	// machine, stack and devices schedule runs on that shard's engine.
	// Ignored (everything is shard 0) on a serial engine.
	Shard int
}

// Host is one simulated server: machine, network stack, NIC, bridge and
// any number of containers.
type Host struct {
	Net *Network
	// E is the shard engine the host lives on: Net.E.Shard(cfg.Shard).
	// All host-owned scheduling goes through it; on a serial run it is
	// simply the one engine.
	E    *sim.Engine
	Name string
	IP   proto.IPv4Addr
	MAC  proto.MAC

	M  *cpu.Machine
	St *netdev.Stack
	Rx *devices.RxPath

	// Arena is the host's SKB allocator: every frame the host allocates
	// recycles into it, on whichever host the frame is freed, instead of
	// into the global sync.Pool.
	Arena *skb.Arena

	NIC    *devices.PNIC
	Bridge *devices.Bridge

	Falcon *falconcore.Falcon

	containers []*Container
	handlers   map[SockKey]L4Handler
	links      map[proto.IPv4Addr]*devices.Link // by peer host IP
	negCache   map[proto.IPv4Addr]negEntry      // KV miss suppression
	// flowCaches is the TX fast-path flow table, one map per simulated
	// core (index = sending core ID): each core owns its table outright,
	// State-Compute-Replication style, so the modeled caches are
	// lock-free and share nothing.
	flowCaches []map[txFlowKey]*txFlowEntry
	// rxCache, when enabled, is the per-core RX decap fast path
	// (rxcache.go); nil means every arriving frame pays the full walk.
	rxCache *rxCache

	// Generation-lazy cache eviction state. Invalidation events bump
	// counters in O(1); entries record the counter values they were built
	// under and are evicted on their next lookup instead of by scanning
	// every per-core table at event time (a reconfig bump used to pause
	// proportional to cache size).
	//
	// cacheEpoch versions whole-cache invalidations (ReconcileKV: crash,
	// reboot, partition heal). purgeClock orders PurgeDeadHost calls;
	// deadAt records, per purged host IP, the clock at declare time — an
	// entry routing through (TX) or sourced from (RX) that host is dead
	// iff it was built before the purge (born < deadAt).
	cacheEpoch uint64
	purgeClock uint64
	deadAt     map[proto.IPv4Addr]uint64

	// L4Drops counts packets with no bound endpoint.
	L4Drops stats.Counter

	// TxMsgs counts entries into the L4 transmit path (SendUDP/SendTCP
	// calls), the injected side of the transmit conservation balance.
	TxMsgs stats.Counter
	// TxResolveDrops counts transmissions abandoned because the
	// destination could not be resolved (KV miss / exhausted retries /
	// no route) — previously a silent error discard in the tx path.
	TxResolveDrops stats.Counter
	// TxBuildDrops counts transmissions abandoned after resolution
	// because no frame could be built (payload over the frame limit) —
	// previously a silent discard in the tx path.
	TxBuildDrops stats.Counter
	// KVRetries counts backoff retries of transiently failed KV
	// lookups; NegCacheHits counts sends suppressed by the negative
	// cache.
	KVRetries    stats.Counter
	NegCacheHits stats.Counter
	// CrashDrops counts packets destroyed by a host crash: frames purged
	// from rings/backlogs/GRO holds at the instant of death plus
	// everything blackholed at the NIC, stack, L4 and TX boundaries
	// while the host is down. It is the crash bucket of the drop census,
	// so conservation balances close across a crash window.
	CrashDrops stats.Counter
	// StaleServes counts transmissions a control-plane-partitioned host
	// served from a stale (version-expired but within the staleness
	// bound) TX flow-cache entry.
	StaleServes stats.Counter
	// RxCacheHits counts arriving VXLAN frames delivered over the RX
	// decap fast path from a fresh entry; RxCacheMisses counts frames
	// that probed the cache and fell through to the full walk;
	// RxCacheStale counts fast-path deliveries a partitioned host served
	// from a version-expired entry within the staleness bound.
	RxCacheHits   stats.Counter
	RxCacheMisses stats.Counter
	RxCacheStale  stats.Counter

	// Audit, when non-nil, attaches every SKB the transmit path creates
	// to the run's lifecycle ledger (see internal/audit), and takes over
	// the frames that arrive from another shard.
	Audit skb.Auditor
	// OnSocketOpen observes every OpenUDP socket; the audit harness
	// uses it to register receive queues and delivery counters.
	OnSocketOpen func(port uint16, sk *socket.Socket)

	// txPending gauges messages inside sendL4 that have neither
	// produced an SKB nor been counted as a drop yet (asynchronous KV
	// resolution keeps a message in flight across sim events).
	txPending int

	txSeq uint16 // IPv4 identification counter

	// crashed marks a dead host: NIC and stack are down, arrivals and
	// sends blackhole into CrashDrops, and the failure detector will
	// detach the LP once the datapath quiesces. Set by Crash, cleared by
	// Reboot — both coordinator-context only.
	crashed bool

	// Per-host continuation free lists. These ops used to live in
	// package-level sync.Pools; every op's lifetime is confined to its
	// host's logical process, so plain single-owner lists recycle them
	// without atomics or cross-shard cache traffic.
	txOps   *txOp
	l4Ops   *l4Op
	sockOps *sockDeliverOp
}

// TxPending reports messages currently inside the transmit path (not
// yet an SKB, not yet a counted drop).
func (h *Host) TxPending() uint64 { return uint64(h.txPending) }

// Container is a container attached to its host's bridge via a veth pair,
// with a private IP on the overlay network.
type Container struct {
	Host *Host
	ID   int
	Name string
	IP   proto.IPv4Addr
	MAC  proto.MAC

	VethBr *devices.Veth // bridge-side end
	VethCt *devices.Veth // container-side end
}

func newHost(n *Network, cfg HostConfig, hostID uint64) *Host {
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	if len(cfg.RSSCores) == 0 {
		cfg.RSSCores = []int{0}
	}
	model := costmodel.ByName(cfg.Kernel)
	e := n.E.Shard(cfg.Shard)
	m := cpu.NewMachine(e, model, cfg.Cores)
	st := netdev.NewStack(m)
	h := &Host{
		Net:        n,
		E:          e,
		Name:       cfg.Name,
		IP:         cfg.IP,
		MAC:        proto.MACFromUint64(0xA0000 + hostID),
		M:          m,
		St:         st,
		Arena:      skb.NewArena(),
		handlers:   make(map[SockKey]L4Handler),
		links:      make(map[proto.IPv4Addr]*devices.Link),
		negCache:   make(map[proto.IPv4Addr]negEntry),
		flowCaches: make([]map[txFlowKey]*txFlowEntry, cfg.Cores),
		deadAt:     make(map[proto.IPv4Addr]uint64),
	}
	h.NIC = devices.NewPNIC(st, cfg.Name+"-eth0", steering.RSS{QueueCores: cfg.RSSCores}, cfg.GRO)
	vxlanIf := st.RegisterDevice(cfg.Name + "-vxlan0")
	bridgeIf := st.RegisterDevice(cfg.Name + "-br0")
	h.Bridge = devices.NewBridge(cfg.Name+"-br0", bridgeIf)
	h.Rx = &devices.RxPath{
		St:        st,
		NIC:       h.NIC,
		RPS:       steering.RPS{CPUs: cfg.RPSCores, Enabled: len(cfg.RPSCores) > 0},
		VXLANIf:   vxlanIf,
		Bridge:    h.Bridge,
		VethByMAC: make(map[proto.MAC]*devices.Veth),
		InnerGRO:  cfg.InnerGRO,
		DeliverL4: h.deliverL4,
	}
	h.Rx.Install()
	m.StartTicker()
	return h
}

// EnableFalcon attaches a Falcon instance to the host's receive path.
func (h *Host) EnableFalcon(cfg falconcore.Config) *falconcore.Falcon {
	h.Falcon = falconcore.New(h.M, cfg)
	h.Rx.Falcon = h.Falcon
	return h.Falcon
}

// DisableFalcon restores the vanilla path.
func (h *Host) DisableFalcon() {
	h.Falcon = nil
	h.Rx.Falcon = nil
}

// AddContainer creates a container with the given private IP, wires its
// veth pair into the bridge, and publishes it in the overlay KV store.
func (h *Host) AddContainer(name string, ip proto.IPv4Addr) *Container {
	c := h.AddStandbyContainer(name, ip)
	h.Net.KV.Put(ip, c.Endpoint())
	return c
}

// AddStandbyContainer creates a container exactly like AddContainer but
// without publishing it in the overlay KV store: a migration target that
// stays dark until a reconfiguration remaps its IP onto this host. The
// container MAC derives from the IP, so the standby's endpoint identity
// matches the primary's — a migrated container keeps its MAC.
func (h *Host) AddStandbyContainer(name string, ip proto.IPv4Addr) *Container {
	id := len(h.containers) + 1
	mac := proto.MACFromUint64(uint64(ip))
	brName := fmt.Sprintf("%s-veth%d", h.Name, id)
	ctName := fmt.Sprintf("%s-c%d-eth0", h.Name, id)
	brIf, ctIf := h.St.RegisterDevice(brName), h.St.RegisterDevice(ctName)
	vbr, vct := devices.NewVethPair(brName, ctName, brIf, ctIf, mac, id)
	c := &Container{Host: h, ID: id, Name: name, IP: ip, MAC: mac, VethBr: vbr, VethCt: vct}
	port := h.Bridge.AddPort(vbr.Name)
	h.Bridge.Learn(mac, port)
	h.Rx.VethByMAC[mac] = vbr
	h.containers = append(h.containers, c)
	return c
}

// Endpoint returns the KV mapping that routes overlay traffic for this
// container to its current host.
func (c *Container) Endpoint() EndpointInfo {
	return EndpointInfo{ContainerMAC: c.MAC, HostIP: c.Host.IP, HostMAC: c.Host.MAC}
}

// Containers returns the host's containers.
func (h *Host) Containers() []*Container { return h.containers }

// ContainerByIP finds a container on this host by overlay IP (nil when
// absent).
func (h *Host) ContainerByIP(ip proto.IPv4Addr) *Container {
	for _, c := range h.containers {
		if c.IP == ip {
			return c
		}
	}
	return nil
}

// SetKernel swaps the host's cost profile to the named kernel — the
// simulation analogue of a reboot into a new kernel, applied instantly
// once the host is quiesced. Costs charged before the swap keep their
// old values; only work submitted afterwards prices at the new profile.
func (h *Host) SetKernel(name string) {
	h.M.Model = costmodel.ByName(name)
}

// Crashed reports whether the host is currently dead.
func (h *Host) Crashed() bool { return h.crashed }

// Crash fails the host instantly: the NIC and stack go down (arrivals
// blackhole into CrashDrops), every queue-resident packet — rx rings,
// outer-GRO holds, per-CPU backlogs, inner-GRO holds — is purged
// accounted, and the host's cached KV resolutions die with it.
// In-execution continuation chains are deliberately left running: they
// terminate, accounted, at the next stage boundary's down check, which
// is what lets Quiesced() become true so the failure detector can
// detach the LP. Coordinator context only (it touches one shard's
// state while all shards are parked).
func (h *Host) Crash() {
	if h.crashed {
		return
	}
	h.crashed = true
	h.NIC.SetDown(true, &h.CrashDrops)
	h.St.SetDown(true, &h.CrashDrops)
	h.NIC.PurgeRings(&h.CrashDrops)
	h.St.PurgeBacklogs(&h.CrashDrops)
	h.Rx.PurgeHeld(&h.CrashDrops)
	h.ReconcileKV()
}

// Reboot brings a crashed host back: NIC and stack come up, caches
// start cold (ReconcileKV — the rebooted kernel holds no resolutions,
// so reconciliation cannot double-deliver), and the machine ticker
// restarts so the failure detector sees heartbeats again and can
// re-admit the host through the reattach path. Coordinator context
// only.
func (h *Host) Reboot() {
	if !h.crashed {
		return
	}
	h.crashed = false
	h.NIC.SetDown(false, nil)
	h.St.SetDown(false, nil)
	h.ReconcileKV()
	h.M.StartTicker()
}

// ReconcileKV drops every cached KV resolution — the whole TX flow
// cache, RX fast-path cache and negative cache. Called on crash (the
// dead kernel's state is gone), on reboot (cold caches), and when a
// control-plane partition heals (stale mappings must not outlive
// reconciliation).
//
// The drop is generation-lazy: bumping cacheEpoch invalidates every
// entry in O(1), and lookups evict mismatched entries as they touch
// them. Eviction never charged simulated time, so the lazy form is
// observably identical to the eager scans it replaced — without the
// event-time pause proportional to cache size.
func (h *Host) ReconcileKV() {
	h.cacheEpoch++
}

// PurgeDeadHost evicts every cached resolution that routes through a
// host just declared dead — TX flow-cache entries resolving to its
// endpoint (or host-network entries addressed to it), RX fast-path
// entries for flows arriving from it, plus negative-cache records for
// the container IPs it carried. The failure detector calls this on
// every surviving host the moment it declares a death, so senders stop
// steering packets at a corpse for however long the current KV version
// would otherwise have validated the entries.
//
// Like ReconcileKV, eviction is generation-lazy: the purge clock
// advances and the dead host's declare time is recorded; entries built
// before it (born < deadAt) die on their next lookup. The negative
// cache is still purged eagerly — that loop is O(containers carried by
// the dead host), not O(cache).
func (h *Host) PurgeDeadHost(hostIP proto.IPv4Addr, containerIPs []proto.IPv4Addr) {
	h.purgeClock++
	h.deadAt[hostIP] = h.purgeClock
	for _, ip := range containerIPs {
		delete(h.negCache, ip)
	}
}

// stamp is the validity stamp a TX or RX flow-cache entry carries: the
// control-plane state it was built under. One rule revalidates both
// caches through three host methods: evicted, fresh and servesStale.
type stamp struct {
	kvVersion uint64   // KV store version at build
	gen       uint64   // network configuration generation at build
	epoch     uint64   // host cacheEpoch at build (lazy ReconcileKV)
	born      uint64   // host purgeClock at build (lazy PurgeDeadHost)
	builtAt   sim.Time // build time (partition staleness bound)
}

// newStamp stamps an entry built now.
func (h *Host) newStamp() stamp {
	return stamp{kvVersion: h.Net.KV.Version(), gen: h.Net.Generation(),
		epoch: h.cacheEpoch, born: h.purgeClock, builtAt: h.E.Now()}
}

// evicted reports whether an entry stamped st that routes through (TX)
// or arrives from (RX) peer is dead: a ReconcileKV since its build, or a
// PurgeDeadHost of peer declared after it.
func (h *Host) evicted(st *stamp, peer proto.IPv4Addr) bool {
	return st.epoch != h.cacheEpoch || h.deadAt[peer] > st.born
}

// fresh reports whether st still matches the KV version and the
// configuration generation, so a Put/Delete and a reconfiguration that
// never touches the KV both expire it.
func (h *Host) fresh(st *stamp) bool {
	return st.kvVersion == h.Net.KV.Version() && st.gen == h.Net.Generation()
}

// servesStale reports whether a version-expired entry stamped st may
// still be served: only by a host partitioned from the control plane,
// which cannot revalidate, and only within PartitionStaleBound of the
// build.
func (h *Host) servesStale(st *stamp) bool {
	return h.Net.KV.Partitioned(h.IP) && h.E.Now()-st.builtAt <= PartitionStaleBound
}

// Quiesced reports whether the host's datapath is empty: no message
// inside the transmit path, no held inner-GRO segments, and every core
// idle with empty backlog and NIC ring. Wire occupancy (frames still in
// flight on links toward this host) is the caller's responsibility —
// links belong to their sending host.
func (h *Host) Quiesced() bool {
	if h.txPending != 0 || h.Rx.InnerGROHeld() != 0 {
		return false
	}
	for c := 0; c < h.M.NumCores(); c++ {
		if !h.M.Core(c).Idle() {
			return false
		}
		local, remote, _, _ := h.St.BacklogState(c)
		ring, _, _ := h.NIC.QueueState(c)
		if local+remote+ring != 0 {
			return false
		}
	}
	return true
}

// Bind registers an L4 handler for (ip, port, proto).
func (h *Host) Bind(key SockKey, fn L4Handler) {
	h.handlers[key] = fn
}

// Unbind removes a binding.
func (h *Host) Unbind(key SockKey) { delete(h.handlers, key) }

// sockDeliverOp carries one packet across the FnSocketDeliver charge
// into Socket.Deliver without a per-packet closure (recycled through the
// host's free list, like the transmit path's txOp).
type sockDeliverOp struct {
	h    *Host
	sk   *socket.Socket
	c    *cpu.Core
	s    *skb.SKB
	done func()
	run  func() // cached op.deliver
	next *sockDeliverOp
}

func (h *Host) getSockDeliverOp() *sockDeliverOp {
	op := h.sockOps
	if op == nil {
		op = new(sockDeliverOp)
		op.run = op.deliver
	} else {
		h.sockOps = op.next
		op.next = nil
	}
	return op
}

func (op *sockDeliverOp) deliver() {
	h, sk, c, s, done := op.h, op.sk, op.c, op.s, op.done
	op.h, op.sk, op.c, op.s, op.done = nil, nil, nil, nil, nil
	op.next = h.sockOps
	h.sockOps = op
	sk.Deliver(c, s)
	done()
}

// OpenUDP binds a plain receiving socket (the sockperf-server shape) at
// ip:port, consumed by an application thread pinned to appCore.
func (h *Host) OpenUDP(ip proto.IPv4Addr, port uint16, appCore int) *socket.Socket {
	sk := socket.New(h.M, appCore)
	if h.OnSocketOpen != nil {
		h.OnSocketOpen(port, sk)
	}
	h.Bind(SockKey{IP: ip, Port: port, Proto: proto.ProtoUDP},
		func(c *cpu.Core, s *skb.SKB, f *proto.Frame, done func()) {
			op := h.getSockDeliverOp()
			op.h, op.sk, op.c, op.s, op.done = h, sk, c, s, done
			c.Exec(stats.CtxSoftIRQ, costmodel.FnSocketDeliver, 0, op.run)
		})
	return sk
}

// l4Op carries one packet across the L4 receive charge into handler
// dispatch (recycled through the host's free list; the dispatch closure
// was a per-packet allocation).
type l4Op struct {
	h    *Host
	c    *cpu.Core
	s    *skb.SKB
	f    *proto.Frame
	done func()
	run  func() // cached op.dispatch
	next *l4Op
}

func (h *Host) getL4Op() *l4Op {
	op := h.l4Ops
	if op == nil {
		op = new(l4Op)
		op.run = op.dispatch
	} else {
		h.l4Ops = op.next
		op.next = nil
	}
	return op
}

func (op *l4Op) dispatch() {
	h, c, s, f, done := op.h, op.c, op.s, op.f, op.done
	op.h, op.c, op.s, op.f, op.done = nil, nil, nil, nil, nil
	op.next = h.l4Ops
	h.l4Ops = op
	key := SockKey{IP: f.IP.Dst, Port: f.DstPort(), Proto: f.IP.Protocol}
	fn, ok := h.handlers[key]
	if !ok {
		h.L4Drops.Inc()
		s.Drop(skb.DropL4Unbound)
		done()
		return
	}
	fn(c, s, f, done)
}

// deliverL4 terminates the receive path: it parses the (inner) frame,
// charges the L4 receive cost, and dispatches to the bound handler.
func (h *Host) deliverL4(c *cpu.Core, s *skb.SKB, done func()) {
	if h.crashed {
		h.CrashDrops.Inc()
		s.Drop(skb.DropHostCrash)
		done()
		return
	}
	f, err := s.Frame()
	if err != nil {
		h.L4Drops.Inc()
		s.Drop(skb.DropL4Frame)
		done()
		return
	}
	var l4 costmodel.Func
	switch f.IP.Protocol {
	case proto.ProtoTCP:
		l4 = costmodel.FnTCPRcv
	default:
		l4 = costmodel.FnUDPRcv
	}
	op := h.getL4Op()
	op.h, op.c, op.s, op.f, op.done = h, c, s, f, done
	c.Exec(stats.CtxSoftIRQ, l4, 0, op.run)
}
