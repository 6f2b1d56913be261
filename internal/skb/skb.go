// Package skb models the kernel's socket buffer (sk_buff): the unit of
// work that flows through every device, queue and softirq in the
// simulation. It also provides the kernel's flow-hashing primitives
// (jhash over the flow key, hash_32 mixing) that RSS, RPS and Falcon's
// get_falcon_cpu all build on.
package skb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"falcon/internal/proto"
	"falcon/internal/sim"
)

// Auditor observes SKB lifecycle events. The datapath never depends on a
// concrete implementation (internal/audit provides one); when no auditor
// is attached every hook is a single nil-check, so the audit-off hot path
// stays allocation- and branch-predictable.
type Auditor interface {
	// SKBGet records that s entered the auditor's scope at the named
	// allocation site.
	SKBGet(s *SKB, site string)
	// SKBStage records that s reached the named device stage.
	SKBStage(s *SKB, stage string)
	// SKBFree records that s was legitimately freed.
	SKBFree(s *SKB)
	// SKBMisuse reports a pool-misuse attempt ("double-free" or
	// "stale-free") that the pool suppressed.
	SKBMisuse(s *SKB, kind string)
}

// FlowKey identifies a network flow — the kernel's struct flow_keys
// reduced to the fields the hash uses: the 5-tuple.
type FlowKey struct {
	SrcIP, DstIP     proto.IPv4Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// String renders the flow key for diagnostics.
func (k FlowKey) String() string {
	p := "udp"
	if k.Proto == proto.ProtoTCP {
		p = "tcp"
	}
	return fmt.Sprintf("%s:%d->%s:%d/%s", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, p)
}

// FlowKeyOf dissects a frame (header bytes followed by payLen unstored
// payload bytes) into its flow key, as the kernel's flow dissector does
// when computing skb->hash.
func FlowKeyOf(frame []byte, payLen int) (FlowKey, error) {
	f, err := proto.ParseFrame(frame, payLen)
	if err != nil {
		return FlowKey{}, err
	}
	return keyOf(&f), nil
}

// keyOf returns a parsed frame's flow key. IP fragments hash on the
// 3-tuple only (ports are unavailable or must match across fragments so
// they land on the same core for reassembly).
func keyOf(f *proto.Frame) FlowKey {
	k := FlowKey{SrcIP: f.IP.Src, DstIP: f.IP.Dst, Proto: f.IP.Protocol}
	if !f.IP.IsFragment() {
		k.SrcPort = f.SrcPort()
		k.DstPort = f.DstPort()
	}
	return k
}

// Hash computes the flow hash over the key, mirroring the kernel's
// flow_hash_from_keys (jhash over the flow words).
func (k FlowKey) Hash() uint32 {
	return jhash3(uint32(k.SrcIP), uint32(k.DstIP),
		uint32(k.SrcPort)<<16|uint32(k.DstPort)|uint32(k.Proto)<<8)
}

// SKB is the simulation's sk_buff. It carries the frame's real header
// bytes and the length of its payload, plus the metadata the datapath
// needs: the flow hash, the current device (skb->dev), GRO segment
// count, and timestamps for latency measurement. Payload content never
// affects a result, so it is not stored: every cost is charged on Len.
type SKB struct {
	// Data is the frame's stored bytes: every header, outer ones
	// included while encapsulated. payLen payload bytes follow them
	// unstored.
	Data   []byte
	payLen int

	// Hash is the flow hash, computed once when the packet first enters
	// the stack (HashValid) and preserved across decapsulation updates.
	Hash      uint32
	HashValid bool

	// IfIndex is the index of the device currently processing the
	// packet — the dev->ifindex the paper mixes into Falcon's hash.
	IfIndex int

	// Segs counts the original packets coalesced into this skb by GRO
	// (1 for a non-merged packet).
	Segs int

	// FlowID and Seq identify the application-level flow and the
	// packet's position in it, used by tests to verify in-order,
	// exactly-once delivery. They are simulation instrumentation, not
	// header fields.
	FlowID uint64
	Seq    uint64

	// SendTime is when the sending application handed the payload to the
	// stack (the open-loop latency origin: sender-side CPU queueing and
	// tx-path stalls count). WireTime is when the frame left the sender's
	// NIC; Delivered is when the receiving application consumed it.
	SendTime  sim.Time
	WireTime  sim.Time
	Delivered sim.Time

	// LastCore is the core that last touched this packet (-1 initially);
	// Migrations counts cross-core hops. Consumers charge the model's
	// migration penalty when resuming on a new core (loss of locality,
	// paper Section 6.3).
	LastCore   int
	Migrations int

	// next links skbs inside intrusive queues (rx rings, backlogs).
	next *SKB

	// Header buffer. hdr is the SKB's own storage for the headers NewTx
	// writes; back is the full backing slice including unused headroom,
	// with Data starting at back[off]. Push grows Data into the headroom
	// (the kernel's skb_push, used for in-place VXLAN encapsulation).
	hdr  [hdrBufCap]byte
	back []byte
	off  int

	// Parsed-header cache: the flow dissector output for the current
	// Data, carried across device stages so each hop does not re-parse
	// the frame, plus the VXLAN inner dissect for tunnel GRO. Both are
	// invalidated whenever the frame changes (SetData / Push / Grow).
	frame      proto.Frame
	frameState uint8 // 0 unparsed, 1 valid, 2 unparsable
	inner      proto.Frame
	innerState uint8 // 0 unknown, 1 VXLAN inner valid, 2 not VXLAN TCP-carrying

	// Lifecycle state. gen counts pool recycles of this SKB (a Handle
	// taken on one incarnation goes stale on the next); freed marks an
	// SKB sitting in the pool, letting Free reject double-frees instead
	// of corrupting the free list. aud, when non-nil, observes the
	// lifecycle; it survives Free (so misuse after free is still
	// attributed to the run that owned the SKB) and is cleared when the
	// pool re-issues the SKB.
	gen   uint32
	freed bool
	aud   Auditor

	// arena, when non-nil, is the shard-local allocator that owns this
	// SKB: Free returns the SKB and its buffer there instead of the
	// global pools, so hot-path recycling touches only the host's own
	// free list. It survives Free (the arena owns the
	// pooled object) and moves at cluster barriers when the packet
	// crosses a shard boundary (Rehome).
	arena *Arena
}

// hdrBufCap sizes the SKB's own header buffer: an encapsulated TCP
// frame's headers (outer Ethernet+IPv4+UDP+VXLAN, inner
// Ethernet+IPv4+TCP) with room to spare. Larger header blocks fall back
// to plain allocation.
const hdrBufCap = 128

// ErrBadFrame is returned by Frame for unparsable frames.
var ErrBadFrame = errors.New("skb: unparsable frame")

var skbPool = sync.Pool{New: func() any { return new(SKB) }}

func getSKB() *SKB {
	s := skbPool.Get().(*SKB)
	s.Segs = 1
	s.LastCore = -1
	s.freed = false
	s.aud = nil
	return s
}

// poolMisuses counts Free calls the pool rejected (double-free or
// stale-generation free). Process-global and atomic: the SKB pool is
// shared across concurrently running simulations.
var poolMisuses atomic.Uint64

// PoolMisuses returns the number of pool-misuse attempts (double-frees
// and stale-generation frees) suppressed since process start.
func PoolMisuses() uint64 { return poolMisuses.Load() }

// Audit attaches auditor a to the SKB and records site as its allocation
// site. Call immediately after New/NewTx, before the SKB enters the
// datapath.
func (s *SKB) Audit(a Auditor, site string) {
	if a == nil {
		return
	}
	s.aud = a
	a.SKBGet(s, site)
}

// Handoffer is implemented by auditors whose tracking state is
// partitioned (per PDES shard): SKBHandoff moves the SKB's ledger
// record from the implementing auditor to the destination auditor.
type Handoffer interface {
	SKBHandoff(s *SKB, to Auditor)
}

// AuditHandoff re-homes the SKB's audit tracking onto auditor `to` —
// called at a cluster barrier when a frame crosses a shard boundary, so
// subsequent Stage/Free hooks run against the shard-local ledger that
// owns the receiving host. A no-op when untracked, already home, or
// `to` is nil; if the current auditor implements Handoffer its ledger
// record migrates along.
func (s *SKB) AuditHandoff(to Auditor) {
	if s.aud == nil || s.aud == to || to == nil {
		return
	}
	if h, ok := s.aud.(Handoffer); ok {
		h.SKBHandoff(s, to)
	}
	s.aud = to
}

// Stage records that the packet reached the named device stage. A no-op
// (one nil-check) when no auditor is attached. Stage names should be
// static string literals so auditing adds no per-packet allocation.
func (s *SKB) Stage(name string) {
	if s.aud != nil {
		s.aud.SKBStage(s, name)
	}
}

// Gen returns the SKB's pool generation (bumped on every Free).
func (s *SKB) Gen() uint32 { return s.gen }

// NewTx returns an SKB for a frame of hdrLen header bytes followed by
// payLen payload bytes, with the given headroom in front of the headers
// (for later in-place encapsulation). The caller writes the headers
// into Data.
func NewTx(hdrLen, payLen, headroom int) *SKB {
	return getSKB().initTx(hdrLen, payLen, headroom)
}

func (s *SKB) initTx(hdrLen, payLen, headroom int) *SKB {
	if hdrLen+headroom <= hdrBufCap {
		s.back = s.hdr[:]
	} else {
		s.back = make([]byte, hdrLen+headroom)
	}
	s.off = headroom
	s.Data = s.back[headroom : headroom+hdrLen]
	s.payLen = payLen
	return s
}

// Push extends Data n bytes backward into the headroom and reports
// whether there was room. The parse caches are invalidated.
func (s *SKB) Push(n int) bool {
	if s.back == nil || s.off < n {
		return false
	}
	s.off -= n
	s.Data = s.back[s.off : s.off+n+len(s.Data)]
	s.frameState, s.innerState = 0, 0
	return true
}

// SetData replaces the frame with header bytes b followed by payLen
// payload bytes and invalidates the parse caches. Headroom is gone: the
// new bytes need not alias the old buffer.
func (s *SKB) SetData(b []byte, payLen int) {
	s.Data, s.payLen = b, payLen
	s.back = nil
	s.frameState, s.innerState = 0, 0
}

// Grow extends the payload by n bytes — how GRO absorbs a segment — and
// invalidates the parse caches; the caller patches the length fields in
// the headers.
func (s *SKB) Grow(n int) {
	s.payLen += n
	s.frameState, s.innerState = 0, 0
}

// Free returns the SKB for reuse.
// Callers must hold no references to the SKB or its Data afterwards.
// Terminal points on the datapath — application consume, drops, loss,
// GRO absorption — free their packets so steady flows recycle a small
// working set instead of allocating per packet.
// A double Free (the SKB is already sitting in the pool) is dropped
// rather than re-inserted — re-inserting would hand the same SKB to two
// owners and corrupt the free list silently. The attempt is counted in
// PoolMisuses and reported to the attached auditor, if any.
func (s *SKB) Free() {
	if s.freed {
		poolMisuses.Add(1)
		if s.aud != nil {
			s.aud.SKBMisuse(s, "double-free")
		}
		return
	}
	if s.aud != nil {
		s.aud.SKBFree(s)
	}
	if a := s.arena; a != nil {
		a.put(s)
		return
	}
	aud, gen := s.aud, s.gen
	*s = SKB{}
	s.aud, s.gen, s.freed = aud, gen+1, true
	skbPool.Put(s)
}

// Handle is a generation-stamped reference to an SKB, for holders that
// may outlive the packet (retry queues, in-flight tables). A Handle goes
// stale the moment the SKB is freed: Get returns nil and Free becomes a
// counted no-op instead of corrupting the pool's free list.
type Handle struct {
	s   *SKB
	gen uint32
}

// Handle returns a generation-stamped reference to s.
func (s *SKB) Handle() Handle { return Handle{s: s, gen: s.gen} }

// Valid reports whether the handle still refers to the live incarnation.
func (h Handle) Valid() bool { return h.s != nil && !h.s.freed && h.s.gen == h.gen }

// Get returns the SKB, or nil when the handle is stale.
func (h Handle) Get() *SKB {
	if h.Valid() {
		return h.s
	}
	return nil
}

// Free frees the SKB through the handle. Freeing through a stale handle
// (the SKB was already freed, possibly recycled into a new incarnation)
// is suppressed, counted in PoolMisuses, and reported to the auditor. It
// reports whether the free actually happened.
func (h Handle) Free() bool {
	if h.s == nil {
		return false
	}
	if h.s.freed || h.s.gen != h.gen {
		poolMisuses.Add(1)
		if h.s.aud != nil {
			h.s.aud.SKBMisuse(h.s, "stale-free")
		}
		return false
	}
	h.s.Free()
	return true
}

// Frame returns the parsed headers of the current Data, dissecting on
// first use and serving the cached result on every later stage.
func (s *SKB) Frame() (*proto.Frame, error) {
	switch s.frameState {
	case 1:
		return &s.frame, nil
	case 2:
		return nil, ErrBadFrame
	}
	f, err := proto.ParseFrame(s.Data, s.payLen)
	if err != nil {
		s.frameState = 2
		return nil, ErrBadFrame
	}
	s.frame = f
	s.frameState = 1
	return &s.frame, nil
}

// IsVXLAN reports whether the frame is VXLAN-in-UDP, using the cached
// dissect (the check udp_rcv performs before vxlan_rcv).
func (s *SKB) IsVXLAN() bool {
	f, err := s.Frame()
	return err == nil && !f.IP.IsFragment() &&
		f.IP.Protocol == proto.ProtoUDP && f.UDP.DstPort == proto.VXLANPort
}

// VXLANInner returns the parsed inner frame of a VXLAN packet (cached).
// ok is false for non-VXLAN frames or invalid encapsulations.
func (s *SKB) VXLANInner() (*proto.Frame, bool) {
	switch s.innerState {
	case 1:
		return &s.inner, true
	case 2:
		return nil, false
	}
	if !s.IsVXLAN() {
		s.innerState = 2
		return nil, false
	}
	f, _ := s.Frame()
	if _, err := proto.ParseVXLAN(f.Payload); err != nil {
		s.innerState = 2
		return nil, false
	}
	fi, err := proto.ParseFrame(f.Payload[proto.VXLANLen:], f.PayLen)
	if err != nil {
		s.innerState = 2
		return nil, false
	}
	s.inner = fi
	s.innerState = 1
	return &s.inner, true
}

// DecapVXLAN strips the outer headers in place (vxlan_rcv): Data becomes
// the inner frame and the already-parsed inner dissect becomes the
// current frame cache, so downstream stages skip the re-parse. Reports
// false when the frame is not a valid VXLAN packet.
func (s *SKB) DecapVXLAN() bool {
	fi, ok := s.VXLANInner()
	if !ok {
		return false
	}
	f, _ := s.Frame()
	s.Data, s.payLen = f.Payload[proto.VXLANLen:], f.PayLen
	s.back = nil // headroom is gone
	s.frame = *fi
	s.frameState = 1
	s.innerState = 0
	return true
}

// Touch records that core is about to process the packet and reports
// whether this is a cross-core migration (the packet was previously
// processed on a different core).
func (s *SKB) Touch(core int) bool {
	if s.LastCore == core {
		return false
	}
	migrated := s.LastCore >= 0
	s.LastCore = core
	if migrated {
		s.Migrations++
	}
	return migrated
}

// New returns an SKB for a frame of header bytes data followed by payLen
// payload bytes, with one segment and no core affinity yet. The bytes
// are externally owned.
func New(data []byte, payLen int) *SKB {
	s := getSKB()
	s.Data, s.payLen = data, payLen
	return s
}

// Len returns the frame length in bytes, payload included.
func (s *SKB) Len() int { return len(s.Data) + s.payLen }

// PayLen returns the length of the payload that follows Data unstored.
func (s *SKB) PayLen() int { return s.payLen }

// SetFlowHash computes and pins the flow hash from the current frame
// bytes. Like the kernel, the hash is computed only once per packet; the
// overlay path recomputes it for the inner flow after decapsulation by
// calling ResetFlowHash.
func (s *SKB) SetFlowHash() error {
	if s.HashValid {
		return nil
	}
	f, err := s.Frame()
	if err != nil {
		return err
	}
	s.Hash = keyOf(f).Hash()
	s.HashValid = true
	return nil
}

// ResetFlowHash invalidates the pinned hash, forcing recomputation from
// the (now inner) frame on the next SetFlowHash.
func (s *SKB) ResetFlowHash() { s.HashValid = false }

// Queue is an intrusive FIFO of SKBs with O(1) enqueue/dequeue and a
// byte/packet budget — the shape of every packet queue in the kernel
// (rx_ring, input_pkt_queue, gro_cells, socket backlog).
type Queue struct {
	head, tail *SKB
	n          int
	limit      int // max packets; 0 means unlimited
	dropped    uint64
	enq, deq   uint64 // lifetime admissions/removals (conservation audit)
}

// NewQueue returns a queue holding at most limit packets (0 = unlimited).
func NewQueue(limit int) *Queue { return &Queue{limit: limit} }

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.n }

// Dropped returns the number of packets rejected because the queue was
// full — the simulation's packet-drop counter.
func (q *Queue) Dropped() uint64 { return q.dropped }

// Enqueued returns lifetime successful admissions.
func (q *Queue) Enqueued() uint64 { return q.enq }

// Dequeued returns lifetime removals.
func (q *Queue) Dequeued() uint64 { return q.deq }

// Validate walks the intrusive list and checks the queue's structural
// invariants: the walked length matches the depth counter, and depth ==
// enqueues − dequeues. It returns the walked length and whether both
// hold. The walk is bounded by n+1 so a corrupted cycle terminates.
func (q *Queue) Validate() (walk int, ok bool) {
	for s := q.head; s != nil; s = s.next {
		walk++
		if walk > q.n {
			break
		}
	}
	return walk, walk == q.n && uint64(q.n) == q.enq-q.deq
}

// Enqueue appends s. It reports false (and counts a drop) when full.
func (q *Queue) Enqueue(s *SKB) bool {
	if q.limit > 0 && q.n >= q.limit {
		q.dropped++
		return false
	}
	s.next = nil
	if q.tail == nil {
		q.head = s
	} else {
		q.tail.next = s
	}
	q.tail = s
	q.n++
	q.enq++
	return true
}

// Dequeue removes and returns the head, or nil when empty.
func (q *Queue) Dequeue() *SKB {
	s := q.head
	if s == nil {
		return nil
	}
	q.head = s.next
	if q.head == nil {
		q.tail = nil
	}
	s.next = nil
	q.n--
	q.deq++
	return s
}

// Peek returns the head without removing it.
func (q *Queue) Peek() *SKB { return q.head }
