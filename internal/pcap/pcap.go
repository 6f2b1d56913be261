// Package pcap writes simulated traffic as standard pcap capture files
// (readable by tcpdump/Wireshark). Because the simulator builds real
// header bytes — Ethernet, IPv4 with checksums, UDP/TCP, VXLAN —
// captures taken on the virtual wire dissect exactly like captures from
// a physical testbed, which makes datapath debugging and demonstration
// concrete: `tcpdump -r run.pcap 'udp port 4789'` shows the overlay's
// encapsulated traffic. Frames do not store their payloads, so the
// writer fills each payload with zeros at capture time.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"

	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/skb"
)

// pcap file constants (classic libpcap format, microsecond timestamps).
const (
	magicNumber  = 0xa1b2c3d4
	versionMajor = 2
	versionMinor = 4
	linkTypeEth  = 1
	maxSnapLen   = 65535
)

// Writer streams pcap records to an io.Writer.
type Writer struct {
	w       io.Writer
	snapLen int
	packets uint64
}

// NewWriter writes the pcap global header and returns the writer.
// snapLen of 0 uses the maximum.
func NewWriter(w io.Writer, snapLen int) (*Writer, error) {
	if snapLen <= 0 || snapLen > maxSnapLen {
		snapLen = maxSnapLen
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicNumber)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone, sigfigs: zero.
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(snapLen))
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeEth)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: header: %w", err)
	}
	return &Writer{w: w, snapLen: snapLen}, nil
}

// Packets returns how many records have been written.
func (pw *Writer) Packets() uint64 { return pw.packets }

// zeros is the fill for captured payload bytes.
var zeros [4096]byte

// WriteFrame records at virtual time t one frame: its header bytes
// followed by payLen payload bytes, written as zeros.
func (pw *Writer) WriteFrame(t sim.Time, frame []byte, payLen int) error {
	frameLen := len(frame) + payLen
	capLen := min(frameLen, pw.snapLen)
	var rec [16]byte
	usec := int64(t) / 1000
	binary.LittleEndian.PutUint32(rec[0:4], uint32(usec/1e6))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(usec%1e6))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(frameLen))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return fmt.Errorf("pcap: record header: %w", err)
	}
	hdr := frame[:min(capLen, len(frame))]
	if _, err := pw.w.Write(hdr); err != nil {
		return fmt.Errorf("pcap: record body: %w", err)
	}
	for fill := capLen - len(hdr); fill > 0; fill -= len(zeros) {
		if _, err := pw.w.Write(zeros[:min(fill, len(zeros))]); err != nil {
			return fmt.Errorf("pcap: record body: %w", err)
		}
	}
	pw.packets++
	return nil
}

// Tap attaches the writer to a link: every frame put on the wire is
// recorded at its transmit time. Chain-safe: the link's existing
// Deliver callback is preserved.
func Tap(l *devices.Link, pw *Writer) {
	next := l.Deliver
	l.Deliver = func(s *skb.SKB) {
		// Record at delivery time (the far end of the wire).
		_ = pw.WriteFrame(l.E.Now(), s.Data, s.PayLen())
		if next != nil {
			next(s)
		}
	}
}
