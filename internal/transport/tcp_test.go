package transport

import (
	"testing"

	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
)

var (
	clientIP = proto.IP4(192, 168, 1, 1)
	serverIP = proto.IP4(192, 168, 1, 2)
	cliCtrIP = proto.IP4(10, 32, 0, 1)
	srvCtrIP = proto.IP4(10, 32, 0, 2)
)

type bed struct {
	e              *sim.Engine
	n              *overlay.Network
	client, server *overlay.Host
	cliCtr, srvCtr *overlay.Container
}

func newBed(t *testing.T, rate float64, txq int) *bed {
	t.Helper()
	e := sim.New(11)
	n := overlay.NewNetwork(e)
	client := n.AddHost(overlay.HostConfig{
		Name: "client", IP: clientIP, Cores: 8,
		RSSCores: []int{0}, RPSCores: []int{1}, GRO: true, InnerGRO: true,
	})
	server := n.AddHost(overlay.HostConfig{
		Name: "server", IP: serverIP, Cores: 8,
		RSSCores: []int{0}, RPSCores: []int{1}, GRO: true, InnerGRO: true,
	})
	n.Connect(client, server, rate, sim.Microsecond)
	if txq > 0 {
		client.LinkTo(serverIP).TxQueueLen = txq
		server.LinkTo(clientIP).TxQueueLen = txq
	}
	return &bed{
		e: e, n: n, client: client, server: server,
		cliCtr: client.AddContainer("c-cli", cliCtrIP),
		srvCtr: server.AddContainer("c-srv", srvCtrIP),
	}
}

func dialOverlay(t *testing.T, b *bed, msgSize int) *Conn {
	t.Helper()
	c, err := Dial(Config{
		Net:        b.n,
		SenderHost: b.client, SenderCtr: b.cliCtr, SenderCore: 2, SrcPort: 40000,
		ReceiverHost: b.server, ReceiverCtr: b.srvCtr, AppCore: 2, DstPort: 5201,
		MsgSize: msgSize, FlowID: 1,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTCPBasicTransfer(t *testing.T) {
	b := newBed(t, 100*devices.Gbps, 0)
	c := dialOverlay(t, b, 1024)
	const msgs = 100
	c.Send(msgs)
	b.e.RunUntil(50 * sim.Millisecond)

	if got := c.rcvNxt; got != msgs*1024 {
		t.Fatalf("rcvNxt = %d, want %d", got, msgs*1024)
	}
	if c.Socket().Delivered.Value() != msgs {
		t.Fatalf("delivered %d messages, want %d", c.Socket().Delivered.Value(), msgs)
	}
	if c.Retransmits.Value() != 0 || c.Timeouts.Value() != 0 {
		t.Fatalf("unexpected loss recovery: retrans=%d timeouts=%d",
			c.Retransmits.Value(), c.Timeouts.Value())
	}
	if c.AcksSent.Value() == 0 {
		t.Fatal("no ACKs sent")
	}
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after full ack", c.Outstanding())
	}
}

func TestTCPHostNetworkTransfer(t *testing.T) {
	b := newBed(t, 100*devices.Gbps, 0)
	c, err := Dial(Config{
		Net:        b.n,
		SenderHost: b.client, SenderCore: 2, SrcPort: 40001,
		ReceiverHost: b.server, AppCore: 2, DstPort: 5202,
		MsgSize: 4096, FlowID: 2,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Send(50)
	b.e.RunUntil(50 * sim.Millisecond)
	if c.Socket().Delivered.Value() != 50 {
		t.Fatalf("delivered %d, want 50", c.Socket().Delivered.Value())
	}
	// Host-network segments must not be decapsulated.
	if b.server.Rx.Decapped.Value() != 0 {
		t.Fatal("host TCP went through overlay decap")
	}
}

func TestTCPCwndGrowsInBulkMode(t *testing.T) {
	b := newBed(t, 100*devices.Gbps, 0)
	c := dialOverlay(t, b, 4096)
	c.StartContinuous()
	b.e.RunUntil(20 * sim.Millisecond)
	if c.Cwnd() <= InitialCwnd {
		t.Fatalf("cwnd = %.1f never grew", c.Cwnd())
	}
	if c.Socket().Delivered.Value() == 0 {
		t.Fatal("no bulk delivery")
	}
	// The byte stream must be contiguous: rcvNxt equals delivered bytes.
	if c.rcvNxt != c.BytesAssembled.Value() {
		t.Fatalf("stream gap: rcvNxt=%d assembled=%d", c.rcvNxt, c.BytesAssembled.Value())
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	// A slow link with a tiny transmit queue forces drops under bulk
	// load; the connection must keep the stream contiguous and make
	// progress through retransmission.
	b := newBed(t, 1*devices.Gbps, 6)
	c := dialOverlay(t, b, 4096)
	c.StartContinuous()
	b.e.RunUntil(100 * sim.Millisecond)

	if c.Retransmits.Value() == 0 && c.Timeouts.Value() == 0 {
		t.Fatalf("no loss recovery triggered (drops=%d)",
			b.client.LinkTo(serverIP).Dropped.Value())
	}
	if c.rcvNxt == 0 {
		t.Fatal("no progress under loss")
	}
	if c.rcvNxt != c.BytesAssembled.Value() {
		t.Fatalf("stream gap after recovery: rcvNxt=%d assembled=%d",
			c.rcvNxt, c.BytesAssembled.Value())
	}
	if c.Socket().OrderViols != 0 {
		t.Fatalf("out-of-order delivery to application: %d", c.Socket().OrderViols)
	}
}

func TestTCPCloseStopsTraffic(t *testing.T) {
	b := newBed(t, 100*devices.Gbps, 0)
	c := dialOverlay(t, b, 1024)
	c.StartContinuous()
	b.e.RunUntil(5 * sim.Millisecond)
	if c.Outstanding() == 0 {
		t.Fatal("nothing in flight at close: the retransmit timer is not armed")
	}
	timeouts := c.Timeouts.Value()
	c.Close()
	delivered := c.Socket().Delivered.Value()
	b.e.RunUntil(10 * sim.Millisecond)
	// A few in-flight segments may still land, but the stream must stop.
	after := c.Socket().Delivered.Value()
	if after > delivered+uint64(2*MaxCwnd) {
		t.Fatalf("traffic continued after close: %d -> %d", delivered, after)
	}
	// Close cancels the retransmit timer: the engine drains without it
	// firing on the data left unacknowledged.
	b.e.Run()
	if n := c.Timeouts.Value(); n != timeouts {
		t.Fatalf("%d retransmit timeouts after close", n-timeouts)
	}
}

// TestTCPCloseCancelsDelayedAck: a lone segment arms the delayed-ACK
// timer, and Close cancels it, so no ACK goes out after the close.
func TestTCPCloseCancelsDelayedAck(t *testing.T) {
	b := newBed(t, 100*devices.Gbps, 0)
	c := dialOverlay(t, b, 1024)
	c.Send(1)
	b.e.RunUntil(delayedAckTimeout / 2)
	if c.SegsDelivered.Value() != 1 || c.AcksSent.Value() != 0 {
		t.Fatalf("%d segments delivered, %d ACKs sent; want the lone segment awaiting its delayed ACK",
			c.SegsDelivered.Value(), c.AcksSent.Value())
	}
	c.Close()
	b.e.Run()
	if n := c.AcksSent.Value(); n != 0 {
		t.Fatalf("%d ACKs sent after close", n)
	}
}

func TestTCPDialValidation(t *testing.T) {
	b := newBed(t, 100*devices.Gbps, 0)
	if _, err := Dial(Config{Net: b.n, SenderHost: b.client, ReceiverHost: b.server}, 0); err == nil {
		t.Fatal("zero MsgSize accepted")
	}
}

func TestTCPSlowLinkThroughputBounded(t *testing.T) {
	// On a 1 Gb/s link, delivered goodput must be below the line rate
	// and above a sane floor (congestion control converges).
	b := newBed(t, 1*devices.Gbps, 0)
	c := dialOverlay(t, b, 4096)
	c.StartContinuous()
	const window = 100 * sim.Millisecond
	b.e.RunUntil(window)
	bits := float64(c.BytesAssembled.Value()) * 8
	gbps := bits / window.Seconds() / 1e9
	if gbps > 1.0 {
		t.Fatalf("goodput %.2f Gb/s exceeds the 1 Gb/s link", gbps)
	}
	if gbps < 0.3 {
		t.Fatalf("goodput %.2f Gb/s implausibly low", gbps)
	}
}
