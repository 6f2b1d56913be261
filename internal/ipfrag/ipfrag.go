// Package ipfrag implements IPv4 fragmentation and reassembly, enabling
// the testbed's MTU mode: with a 1500-byte MTU (instead of the default
// jumbo/GSO model), a 64 KB UDP datagram crosses the wire as ~44
// fragments and the receiver pays per-fragment stack costs before
// reassembly — the regime the paper's 64 KB sockperf runs actually
// exercise on hardware.
//
// Frames are header bytes followed by a payload length (see package
// proto), so fragmentation and reassembly split and join lengths. Only
// the first fragment carries the IP payload's stored bytes: the L4
// header and, for a VXLAN frame, the encapsulated headers.
package ipfrag

import (
	"errors"
	"fmt"

	"falcon/internal/proto"
	"falcon/internal/sim"
)

// ReassemblyTimeout evicts incomplete datagrams (the kernel's
// ip_frag_time is 30 s; the simulation uses a tighter bound).
const ReassemblyTimeout = 500 * sim.Millisecond

// Part is one frame of a fragmented datagram: its header bytes and the
// length of the payload that follows them unstored.
type Part struct {
	Data   []byte
	PayLen int
}

// Fragment splits an Ethernet/IPv4 frame — header bytes followed by
// payLen payload bytes — whose IP packet exceeds mtu into valid
// fragments, each a complete Ethernet frame. The original frame's IP ID
// groups the fragments (callers must use unique non-zero IDs per
// datagram). Frames already within mtu are returned unchanged.
func Fragment(frame []byte, payLen, mtu int) ([]Part, error) {
	eth, err := proto.ParseEthernet(frame)
	if err != nil {
		return nil, err
	}
	ip, err := proto.ParseIPv4(frame[proto.EthLen:], payLen)
	if err != nil {
		return nil, err
	}
	if int(ip.TotalLen) <= mtu {
		return []Part{{frame, payLen}}, nil
	}
	if ip.IsFragment() {
		return nil, errors.New("ipfrag: refusing to re-fragment a fragment")
	}
	chunk := (mtu - proto.IPv4Len) &^ 7 // offsets are 8-byte aligned
	if chunk <= 0 {
		return nil, fmt.Errorf("ipfrag: mtu %d too small", mtu)
	}
	// The IP payload's stored bytes ride in the first fragment, as a
	// real first fragment must carry the whole L4 header (RFC 1858).
	stored := frame[proto.EthLen+proto.IPv4Len:]
	if len(stored) > chunk {
		return nil, fmt.Errorf("ipfrag: %d header bytes exceed mtu %d", len(stored), mtu)
	}
	const hdrLen = proto.EthLen + proto.IPv4Len
	total := int(ip.TotalLen) - proto.IPv4Len
	out := make([]Part, 0, (total+chunk-1)/chunk)
	for off := 0; off < total; off += chunk {
		size := min(chunk, total-off)
		var l4 []byte
		if off == 0 {
			l4 = stored
		}
		f := make([]byte, hdrLen+len(l4))
		proto.PutEthernet(f, eth)
		proto.PutIPv4(f[proto.EthLen:], proto.IPv4Hdr{
			TotalLen:  uint16(proto.IPv4Len + size),
			ID:        ip.ID,
			TTL:       ip.TTL,
			Protocol:  ip.Protocol,
			Src:       ip.Src,
			Dst:       ip.Dst,
			MoreFrags: off+size < total,
			FragOff:   uint16(off),
		})
		copy(f[hdrLen:], l4)
		out = append(out, Part{f, size - len(l4)})
	}
	return out, nil
}

type fragKey struct {
	src, dst proto.IPv4Addr
	id       uint16
	protocol uint8
}

type partial struct {
	parts    map[uint16]int // offset → fragment payload length
	first    []byte         // the first fragment's stored IP payload bytes
	total    int            // payload length, known once the MF=0 part arrives
	received int
	eth      proto.EthernetHdr
	hdr      proto.IPv4Hdr
	started  sim.Time
}

// Reassembler collects fragments into whole datagrams.
type Reassembler struct {
	table map[fragKey]*partial

	// Reassembled and Evicted count completed datagrams and timed-out
	// partials.
	Reassembled uint64
	Evicted     uint64
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{table: make(map[fragKey]*partial)}
}

// Pending returns the number of incomplete datagrams held.
func (r *Reassembler) Pending() int { return len(r.table) }

// Add offers one fragment — header bytes followed by payLen payload
// bytes — at virtual time now. When the fragment completes its
// datagram, the reconstructed frame is returned; otherwise a Part with
// nil Data. Non-fragment frames pass straight through. The stored bytes
// of the first fragment's IP payload are kept (copied); later fragments
// count only as lengths.
func (r *Reassembler) Add(frame []byte, payLen int, now sim.Time) (Part, error) {
	eth, err := proto.ParseEthernet(frame)
	if err != nil {
		return Part{}, err
	}
	ip, err := proto.ParseIPv4(frame[proto.EthLen:], payLen)
	if err != nil {
		return Part{}, err
	}
	if !ip.IsFragment() {
		return Part{frame, payLen}, nil
	}
	r.evict(now)

	key := fragKey{src: ip.Src, dst: ip.Dst, id: ip.ID, protocol: ip.Protocol}
	p, ok := r.table[key]
	if !ok {
		p = &partial{parts: make(map[uint16]int), total: -1, eth: eth, hdr: ip, started: now}
		r.table[key] = p
	}
	size := int(ip.TotalLen) - proto.IPv4Len
	if _, dup := p.parts[ip.FragOff]; !dup {
		p.parts[ip.FragOff] = size
		p.received += size
		if ip.FragOff == 0 {
			stored := frame[proto.EthLen+proto.IPv4Len:]
			p.first = append([]byte(nil), stored[:min(len(stored), size)]...)
		}
	}
	if !ip.MoreFrags {
		p.total = int(ip.FragOff) + size
	}
	if p.total < 0 || p.received < p.total {
		return Part{}, nil
	}
	// Verify contiguity and rebuild.
	covered := 0
	for off, n := range p.parts {
		if int(off)+n > p.total {
			delete(r.table, key)
			return Part{}, errors.New("ipfrag: fragment overruns datagram")
		}
		covered += n
	}
	if covered != p.total {
		return Part{}, nil // overlapping or duplicate-counted: wait for more
	}
	delete(r.table, key)
	buf := make([]byte, proto.EthLen+proto.IPv4Len+len(p.first))
	proto.PutEthernet(buf, p.eth)
	proto.PutIPv4(buf[proto.EthLen:], proto.IPv4Hdr{
		TotalLen: uint16(proto.IPv4Len + p.total),
		ID:       p.hdr.ID,
		TTL:      p.hdr.TTL,
		Protocol: p.hdr.Protocol,
		Src:      p.hdr.Src,
		Dst:      p.hdr.Dst,
	})
	copy(buf[proto.EthLen+proto.IPv4Len:], p.first)
	r.Reassembled++
	return Part{buf, p.total - len(p.first)}, nil
}

// evict drops partials older than the reassembly timeout.
func (r *Reassembler) evict(now sim.Time) {
	for k, p := range r.table {
		if now-p.started > ReassemblyTimeout {
			delete(r.table, k)
			r.Evicted++
		}
	}
}
