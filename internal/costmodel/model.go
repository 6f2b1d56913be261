package costmodel

import "falcon/internal/sim"

// Entry is the cost of one function invocation: Base nanoseconds plus
// PerByte nanoseconds for every byte the invocation touches.
type Entry struct {
	Base    float64
	PerByte float64
}

// Model is a complete datapath calibration. Values are chosen so the
// *relationships* the paper reports hold (see calibration notes on each
// profile); absolute packet rates are simulator-scale, not testbed-scale.
type Model struct {
	// Name identifies the profile ("linux-4.19", "linux-5.4").
	Name string

	entries [NumFuncs]Entry

	// MigrationPenalty is charged once whenever a packet's processing
	// resumes on a different core than the previous stage ran on: the
	// cache-locality cost of Falcon's pipelining (paper Section 6.3)
	// and of RPS's initial steering hop.
	MigrationPenalty float64
}

// Cost returns the cost of invoking f over the given byte count.
func (m *Model) Cost(f Func, bytes int) sim.Time {
	e := m.entries[f]
	return sim.Time(e.Base + float64(e.PerByte*float64(bytes)))
}

// Base returns the per-invocation base cost of f.
func (m *Model) Base(f Func) sim.Time { return sim.Time(m.entries[f].Base) }

// Migration returns the cross-core cache penalty as a Time.
func (m *Model) Migration() sim.Time { return sim.Time(m.MigrationPenalty) }

// Set overrides one entry; used by calibration sweeps and ablation
// benchmarks (e.g. the locality-penalty sweep in DESIGN.md §5).
func (m *Model) Set(f Func, e Entry) { m.entries[f] = e }

// Get returns the entry for f.
func (m *Model) Get(f Func) Entry { return m.entries[f] }

// Clone returns an independent copy of the model.
func (m *Model) Clone() *Model {
	c := *m
	return &c
}

// Kernel419 returns the Linux 4.19 calibration.
//
// Calibration notes (all costs in ns; receive path of a small UDP packet):
//   - host softirq path ≈ 1.27 us/pkt, user-space receive ≈ 1.45 us/pkt:
//     the host network is bottlenecked by user-space receive (Fig. 11).
//   - overlay adds vxlan_rcv + gro_cell_poll + bridge + veth + backlog +
//     a second L3/L4 traversal ≈ 3.1 us/pkt of softirq work; serialized
//     on one core this halves single-flow packet rate vs host (Fig. 2).
//   - per-byte costs make TCP 4 KB saturate stage 1 with skb_allocation
//     and napi_gro_receive contributing ≈ 45% each (Fig. 9a).
func Kernel419() *Model {
	m := &Model{Name: "linux-4.19", MigrationPenalty: 130}
	m.entries = [NumFuncs]Entry{
		FnHardIRQ:      {Base: 600},
		FnNAPIPoll:     {Base: 50},
		FnSKBAlloc:     {Base: 260, PerByte: 0.050},
		FnGROReceive:   {Base: 100, PerByte: 0.105}, // per-byte charged for TCP only
		FnNetifReceive: {Base: 130},
		FnRPS:          {Base: 70},
		FnIPRcv:        {Base: 220},
		FnUDPRcv:       {Base: 220},
		FnTCPRcv:       {Base: 400},
		// The overlay-only stages carry real per-byte cost (header pulls,
		// checksum re-validation and cache-cold data touches on the inner
		// frame), which is what makes the overlay's throughput loss GROW
		// with packet size on fast links (Fig. 2a: 53% UDP loss at 100G
		// with 64 KB messages) while staying hidden at 10 Gb/s.
		FnVXLANRcv:      {Base: 420, PerByte: 0.060},
		FnGROCellPoll:   {Base: 80, PerByte: 0.030},
		FnBridge:        {Base: 320},
		FnVethXmit:      {Base: 280},
		FnBacklog:       {Base: 150, PerByte: 0.035},
		FnSocketDeliver: {Base: 220},
		FnUserCopy:      {Base: 1300, PerByte: 0.040},
		FnAppWork:       {Base: 150},
		FnTxStack:       {Base: 600, PerByte: 0.030},
		FnVXLANXmit:     {Base: 450, PerByte: 0.015},
		FnTxNIC:         {Base: 250},
		FnEnqueueRemote: {Base: 80},
		FnIPIRaise:      {Base: 150},
		FnSoftIRQEntry:  {Base: 120},
		// ONCache-style RX fast path: a warm flow-cache hit replaces the
		// whole inner decap walk (vxlan_rcv, gro_cell_poll, bridge, veth,
		// backlog, second L3 traversal) with one lookup plus a cached
		// decap-and-deliver step. The per-byte term is a single header
		// rewrite pass — the inner frame's payload is never re-touched,
		// which is where the walk's ~0.125 ns/B disappears to.
		FnRxCacheLookup:  {Base: 40},
		FnRxCacheDeliver: {Base: 150, PerByte: 0.020},
	}
	return m
}

// Kernel504 returns the Linux 5.4 calibration. The 5.4 sk_buff
// allocation rework makes allocation cheaper (improvement) while GRO and
// demux grew slightly costlier (the regressions the paper observed when
// porting Falcon from 4.19 to 5.4).
func Kernel504() *Model {
	m := Kernel419().Clone()
	m.Name = "linux-5.4"
	m.Set(FnSKBAlloc, Entry{Base: 205, PerByte: 0.042})
	m.Set(FnGROReceive, Entry{Base: 112, PerByte: 0.115})
	m.Set(FnNetifReceive, Entry{Base: 140})
	m.Set(FnUDPRcv, Entry{Base: 205})
	return m
}

// profiles maps every kernel name ByName resolves to its calibration;
// the empty name is the 4.19 default.
var profiles = map[string]func() *Model{
	"": Kernel419, "4.19": Kernel419, "linux-4.19": Kernel419,
	"5.4": Kernel504, "linux-5.4": Kernel504,
}

// Known reports whether name is a kernel profile ByName resolves, as
// opposed to one it would silently replace with the 4.19 default.
// Inputs that name a kernel (flags, schedules) check it first.
func Known(name string) bool {
	_, ok := profiles[name]
	return ok
}

// ByName returns the profile for a kernel name, defaulting to 4.19.
func ByName(name string) *Model {
	if k, ok := profiles[name]; ok {
		return k()
	}
	return Kernel419()
}
