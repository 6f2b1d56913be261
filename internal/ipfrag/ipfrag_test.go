package ipfrag

import (
	"bytes"
	"testing"
	"testing/quick"

	"falcon/internal/proto"
	"falcon/internal/sim"
)

// bigFrame returns the headers of a UDP datagram carrying n payload
// bytes.
func bigFrame(n int, id uint16) Part {
	return Part{proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2), 7000, 5001, id, n), n}
}

func fragment(p Part, mtu int) ([]Part, error) { return Fragment(p.Data, p.PayLen, mtu) }

func add(r *Reassembler, p Part, now sim.Time) (Part, error) { return r.Add(p.Data, p.PayLen, now) }

// same reports whether two frames have the same header bytes and
// payload length.
func same(a, b Part) bool { return bytes.Equal(a.Data, b.Data) && a.PayLen == b.PayLen }

func TestSmallFramePassesThrough(t *testing.T) {
	f := bigFrame(100, 1)
	out, err := fragment(f, 1500)
	if err != nil || len(out) != 1 || !same(out[0], f) {
		t.Fatalf("small frame mangled: %d parts, %v", len(out), err)
	}
}

func TestFragmentSizesAndFlags(t *testing.T) {
	f := bigFrame(4000, 2)
	parts, err := fragment(f, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3", len(parts))
	}
	sum := 0
	for i, p := range parts {
		ip, err := proto.ParseIPv4(p.Data[proto.EthLen:], p.PayLen)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if int(ip.TotalLen) != len(p.Data)-proto.EthLen+p.PayLen {
			t.Fatalf("fragment %d: total length %d, frame %d+%d", i, ip.TotalLen, len(p.Data), p.PayLen)
		}
		// Only the first fragment stores bytes past the IPv4 header: the
		// UDP header.
		want := 0
		if i == 0 {
			want = proto.UDPLen
		}
		if stored := len(p.Data) - proto.EthLen - proto.IPv4Len; stored != want {
			t.Fatalf("fragment %d stores %d bytes past the IPv4 header, want %d", i, stored, want)
		}
		sum += int(ip.TotalLen) - proto.IPv4Len
		if int(ip.TotalLen) > 1500 {
			t.Fatalf("fragment %d exceeds MTU: %d", i, ip.TotalLen)
		}
		if ip.FragOff%8 != 0 {
			t.Fatalf("fragment %d offset %d not 8-aligned", i, ip.FragOff)
		}
		if (i < len(parts)-1) != ip.MoreFrags {
			t.Fatalf("fragment %d MF flag wrong", i)
		}
		if ip.ID != 2 {
			t.Fatalf("fragment %d lost the datagram id", i)
		}
	}
	if sum != proto.UDPLen+4000 {
		t.Fatalf("fragments carry %d bytes of IP payload, want %d", sum, proto.UDPLen+4000)
	}
}

func TestRefuseRefragment(t *testing.T) {
	parts, _ := fragment(bigFrame(4000, 3), 1500)
	if _, err := fragment(parts[0], 600); err == nil {
		t.Fatal("re-fragmenting a fragment succeeded")
	}
}

func TestReassembleRoundTrip(t *testing.T) {
	orig := bigFrame(9000, 4)
	parts, err := fragment(orig, 1500)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler()
	var got Part
	for i, p := range parts {
		out, err := add(r, p, sim.Time(i))
		if err != nil {
			t.Fatal(err)
		}
		if i < len(parts)-1 && out.Data != nil {
			t.Fatal("completed early")
		}
		if i == len(parts)-1 {
			got = out
		}
	}
	if got.Data == nil {
		t.Fatal("never completed")
	}
	if !same(got, orig) {
		t.Fatal("reassembly corrupted the datagram")
	}
	if r.Pending() != 0 || r.Reassembled != 1 {
		t.Fatalf("state: pending=%d reassembled=%d", r.Pending(), r.Reassembled)
	}
}

func TestReassembleOutOfOrderAndDuplicates(t *testing.T) {
	orig := bigFrame(6000, 5)
	parts, _ := fragment(orig, 1500)
	r := NewReassembler()
	// Deliver in reverse with a duplicate in the middle.
	var got Part
	order := []Part{parts[len(parts)-1]}
	for i := len(parts) - 2; i >= 0; i-- {
		order = append(order, parts[i], parts[i])
	}
	for i, p := range order {
		out, err := add(r, p, sim.Time(i))
		if err != nil {
			t.Fatal(err)
		}
		if out.Data != nil {
			got = out
		}
	}
	if !same(got, orig) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestInterleavedDatagrams(t *testing.T) {
	a, _ := fragment(bigFrame(4000, 10), 1500)
	b, _ := fragment(bigFrame(4000, 11), 1500)
	r := NewReassembler()
	done := 0
	for i := range a {
		if out, _ := add(r, a[i], 0); out.Data != nil {
			done++
		}
		if out, _ := add(r, b[i], 0); out.Data != nil {
			done++
		}
	}
	if done != 2 {
		t.Fatalf("completed %d datagrams, want 2", done)
	}
}

func TestEvictionOnTimeout(t *testing.T) {
	parts, _ := fragment(bigFrame(4000, 12), 1500)
	r := NewReassembler()
	add(r, parts[0], 0) // lone fragment
	if r.Pending() != 1 {
		t.Fatal("partial not held")
	}
	// A later fragment of another datagram triggers eviction.
	other, _ := fragment(bigFrame(4000, 13), 1500)
	add(r, other[0], ReassemblyTimeout+1)
	if r.Evicted != 1 {
		t.Fatalf("evicted = %d", r.Evicted)
	}
	// The stale datagram can no longer complete.
	for _, p := range parts[1:] {
		if out, _ := add(r, p, ReassemblyTimeout+2); out.Data != nil {
			t.Fatal("evicted datagram completed")
		}
	}
}

func TestNonFragmentPassesThrough(t *testing.T) {
	f := bigFrame(200, 14)
	r := NewReassembler()
	out, err := add(r, f, 0)
	if err != nil || !same(out, f) {
		t.Fatal("non-fragment did not pass through")
	}
}

func TestFragmentRoundTripProperty(t *testing.T) {
	// Any payload size and MTU choice round-trips: the same headers and
	// payload length.
	r := NewReassembler()
	id := uint16(100)
	if err := quick.Check(func(sizeRaw uint16, mtuRaw uint8) bool {
		size := int(sizeRaw)%30000 + 100
		mtu := int(mtuRaw)%2000 + 576
		id++
		orig := bigFrame(size, id)
		parts, err := fragment(orig, mtu)
		if err != nil {
			return false
		}
		var got Part
		for _, p := range parts {
			out, err := add(r, p, 0)
			if err != nil {
				return false
			}
			if out.Data != nil {
				got = out
			}
		}
		return same(got, orig)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
