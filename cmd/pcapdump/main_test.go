package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	falcon "falcon"
)

// Captures are pinned by SHA-256: every header byte, every zero of
// payload and every timestamp of the virtual wire must stay the same.
func TestCaptureHashes(t *testing.T) {
	for _, tc := range []struct {
		proto  string
		frames uint64
		sha    string
	}{
		{"udp", 196, "3f4cc70247de433aec447dcb65affffa35ea11ddd88779910c9b95aaf24a0df0"},
		{"tcp", 58, "34952de50b20e7e12e2a7ea4189c83ce25bfc9d98ab4cef570ce217cff39a1c4"},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := capture(&buf, tc.proto, 200)
			if err != nil {
				t.Fatal(err)
			}
			checkCapture(t, buf.Bytes(), n, tc.frames, tc.sha)
		})
	}
}

// TestFragmentCaptureHash pins a capture of 9000 B UDP datagrams sent
// over a 1500 B MTU wire, so IP fragments are pinned too.
func TestFragmentCaptureHash(t *testing.T) {
	tb := falcon.NewTestbed(falcon.TestbedConfig{
		LinkRate: 100 * falcon.Gbps, Cores: 8, Containers: 1, MTU: 1500,
	})
	var buf bytes.Buffer
	pw, err := falcon.NewPcapWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	falcon.TapLink(tb.Client.LinkTo(falcon.ServerIP), pw)
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 9000, 2, 3, 1)
	f.SendAtRate(2_000, 2*falcon.Millisecond)
	tb.Run(5 * falcon.Millisecond)
	checkCapture(t, buf.Bytes(), pw.Packets(), 35,
		"9ec73271302e89d3553775622f4cdf04137f394a1280179cddea646733a7fd3f")
}

func checkCapture(t *testing.T, b []byte, n, frames uint64, want string) {
	t.Helper()
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	if n != frames || got != want {
		t.Errorf("capture: %d frames, %d bytes, sha256 %s; want %d frames, sha256 %s",
			n, len(b), got, frames, want)
	}
}
