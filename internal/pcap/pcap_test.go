package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"

	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
)

func TestWriterHeader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0); err != nil {
		t.Fatal(err)
	}
	h := buf.Bytes()
	if len(h) != 24 {
		t.Fatalf("header len = %d", len(h))
	}
	if binary.LittleEndian.Uint32(h[0:4]) != magicNumber {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint32(h[20:24]) != linkTypeEth {
		t.Fatal("bad link type")
	}
	if binary.LittleEndian.Uint32(h[16:20]) != maxSnapLen {
		t.Fatal("default snaplen not applied")
	}
}

func TestWriteFrameRecord(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf, 0)
	frame := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2), 1, 2, 0, 7)
	at := 3*sim.Second + 250*sim.Millisecond
	if err := pw.WriteFrame(at, frame, 7); err != nil {
		t.Fatal(err)
	}
	if pw.Packets() != 1 {
		t.Fatalf("packets = %d", pw.Packets())
	}
	rec := buf.Bytes()[24:]
	if binary.LittleEndian.Uint32(rec[0:4]) != 3 {
		t.Fatalf("ts_sec = %d", binary.LittleEndian.Uint32(rec[0:4]))
	}
	if binary.LittleEndian.Uint32(rec[4:8]) != 250000 {
		t.Fatalf("ts_usec = %d", binary.LittleEndian.Uint32(rec[4:8]))
	}
	if int(binary.LittleEndian.Uint32(rec[8:12])) != len(frame)+7 ||
		int(binary.LittleEndian.Uint32(rec[12:16])) != len(frame)+7 {
		t.Fatal("caplen/origlen mismatch")
	}
	// The header bytes, then the payload as zeros.
	want := append(append([]byte(nil), frame...), make([]byte, 7)...)
	if !bytes.Equal(rec[16:], want) {
		t.Fatal("frame bytes corrupted")
	}
}

func TestSnapLenTruncates(t *testing.T) {
	var buf bytes.Buffer
	pw, _ := NewWriter(&buf, 64)
	frame := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
		proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2), 1, 2, 0, 470)
	if err := pw.WriteFrame(0, frame, 470); err != nil {
		t.Fatal(err)
	}
	rec := buf.Bytes()[24:]
	if binary.LittleEndian.Uint32(rec[8:12]) != 64 {
		t.Fatal("caplen not truncated")
	}
	if binary.LittleEndian.Uint32(rec[12:16]) != 512 {
		t.Fatal("origlen lost")
	}
	if len(rec) != 16+64 {
		t.Fatalf("record size = %d", len(rec))
	}
	if !bytes.Equal(rec[16:16+len(frame)], frame) || !bytes.Equal(rec[16+len(frame):], make([]byte, 64-len(frame))) {
		t.Fatal("truncated record is not the headers followed by zeros")
	}
}

func TestTapRecordsLinkTraffic(t *testing.T) {
	e := sim.New(1)
	l := devices.NewLink(e, 10*devices.Gbps, 0)
	delivered := 0
	l.Deliver = func(s *skb.SKB) { delivered++ }

	var buf bytes.Buffer
	pw, _ := NewWriter(&buf, 0)
	Tap(l, pw)

	for i := 0; i < 5; i++ {
		frame := proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2),
			proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2), 100, 200, uint16(i), 1)
		l.Send(skb.New(frame, 1))
	}
	e.Run()

	if delivered != 5 {
		t.Fatalf("tap broke delivery: %d", delivered)
	}
	if pw.Packets() != 5 {
		t.Fatalf("captured %d packets", pw.Packets())
	}
	// The capture must contain parseable frames at the right offsets.
	data := buf.Bytes()[24:]
	for i := 0; i < 5; i++ {
		caplen := int(binary.LittleEndian.Uint32(data[8:12]))
		frame := data[16 : 16+caplen]
		if _, err := proto.ParseFrame(frame, 0); err != nil {
			t.Fatalf("captured frame %d unparsable: %v", i, err)
		}
		data = data[16+caplen:]
	}
	if len(data) != 0 {
		t.Fatal("trailing bytes in capture")
	}
}
