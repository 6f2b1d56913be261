// Command pcapdump runs a short overlay scenario and writes the virtual
// wire's traffic to a standard pcap file. Because the simulator builds
// byte-accurate frames, the capture dissects cleanly in tcpdump or
// Wireshark:
//
//	go run ./cmd/pcapdump -o overlay.pcap
//	tcpdump -r overlay.pcap -nn 'udp port 4789' | head
//
// shows real VXLAN-encapsulated UDP/TCP container traffic, exactly as a
// capture on the physical NIC of the paper's testbed would. Frames carry
// no payload bytes, so the capture fills every payload with zeros.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	falcon "falcon"
)

func main() {
	var (
		out    = flag.String("o", "overlay.pcap", "output pcap path")
		proto_ = flag.String("proto", "both", "udp | tcp | both")
		count  = flag.Int("n", 200, "approximate UDP packets to capture")
	)
	flag.Parse()

	fh, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapdump: %v\n", err)
		os.Exit(1)
	}
	defer fh.Close()
	frames, err := capture(fh, *proto_, *count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcapdump: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d frames to %s\n", frames, *out)
	fmt.Println("inspect with: tcpdump -r " + *out + " -nn 'udp port 4789'")
}

// capture runs the scenario — a UDP flow, a TCP connection or both,
// container to container across the overlay — and writes both
// directions of the inter-host wire to w as pcap. It returns the number
// of frames written.
func capture(w io.Writer, proto string, count int) (uint64, error) {
	tb := falcon.NewTestbed(falcon.TestbedConfig{
		LinkRate: 100 * falcon.Gbps, Cores: 8, Containers: 1,
		GRO: true, InnerGRO: true,
	})
	pw, err := falcon.NewPcapWriter(w, 0)
	if err != nil {
		return 0, err
	}
	// Tap both directions of the inter-host wire.
	falcon.TapLink(tb.Client.LinkTo(falcon.ServerIP), pw)
	falcon.TapLink(tb.Server.LinkTo(falcon.ClientIP), pw)

	until := falcon.Time(count) * 50 * falcon.Microsecond
	if proto == "udp" || proto == "both" {
		f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 256, 2, 3, 1)
		f.SendAtRate(20_000, until)
	}
	if proto == "tcp" || proto == "both" {
		c, err := falcon.DialTCP(falcon.TCPConfig{
			Net:        tb.Net,
			SenderHost: tb.Client, SenderCtr: tb.ClientCtrs[0], SenderCore: 4, SrcPort: 40000,
			ReceiverHost: tb.Server, ReceiverCtr: tb.ServerCtrs[0], AppCore: 5, DstPort: 5201,
			MsgSize: 1024, FlowID: 2,
		}, 0)
		if err != nil {
			return 0, err
		}
		c.Send(count / 4)
	}
	tb.Run(until + 10*falcon.Millisecond)
	return pw.Packets(), nil
}
