package overlay

import (
	"fmt"
	"strings"

	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/skb"
)

// DropBucket is one bucket of the drop census: one datapath counter
// plus the skb.DropReasons freed under it.
type DropBucket int

const (
	BucketResolve  DropBucket = iota // tx resolution failures (KV miss, no route)
	BucketBuild                      // tx frame-build failures
	BucketLinkTxq                    // link tx-queue overflow
	BucketLinkLoss                   // random wire loss
	BucketNIC                        // NIC ring/frame drops
	BucketBacklog                    // softirq backlog overflow
	BucketPath                       // rx-path discards (decap, bridge, FDB, reassembly)
	BucketL4                         // unparsable at L4 or no bound endpoint
	BucketCrash                      // destroyed by a host crash (purged + blackholed)
	NumDropBuckets
)

// buckets names each bucket, the counter it reads and its audit balance.
// A balance checks the counter against the ledger's frees under the
// bucket's reasons. Resolve, build and crash have none: their counters
// also count sends that never became an SKB.
var buckets = [NumDropBuckets]struct {
	name, counter, balance string
	reasons                []skb.DropReason
}{
	BucketResolve:  {"resolve", "host.TxResolveDrops", "", nil},
	BucketBuild:    {"build", "host.TxBuildDrops", "", nil},
	BucketLinkTxq:  {"link-txq", "link.Dropped", "link-txq", []skb.DropReason{skb.DropLinkTxq}},
	BucketLinkLoss: {"link-loss", "link.Lost", "link-loss", []skb.DropReason{skb.DropLinkLoss}},
	BucketNIC:      {"nic", "nic.Drops", "nic-drops", []skb.DropReason{skb.DropNICRing, skb.DropNICFrame}},
	BucketBacklog:  {"backlog", "stack.Drops", "backlog-drops", []skb.DropReason{skb.DropBacklog}},
	BucketPath: {"path", "rx.PathDrops", "path-drops",
		[]skb.DropReason{skb.DropDecap, skb.DropBridge, skb.DropFDB, skb.DropReasm}},
	BucketL4: {"l4", "host.L4Drops", "l4-drops", []skb.DropReason{skb.DropL4Frame, skb.DropL4Unbound}},
	BucketCrash: {"crash", "host.CrashDrops", "",
		[]skb.DropReason{skb.DropHostCrash, skb.DropNICDown, skb.DropStackDown}},
}

// A bucket's census label, counter, audit balance ("" when none) and
// drop reasons.

func (b DropBucket) String() string            { return buckets[b].name }
func (b DropBucket) Counter() string           { return buckets[b].counter }
func (b DropBucket) Balance() string           { return buckets[b].balance }
func (b DropBucket) Reasons() []skb.DropReason { return buckets[b].reasons }

// Drops is a cumulative drop census, one count per bucket. Socket
// receive-queue overflows are not in it; sockets count their own.
type Drops [NumDropBuckets]uint64

// Total sums every bucket.
func (d Drops) Total() (n uint64) {
	for _, v := range d {
		n += v
	}
	return n
}

// Sub returns the per-bucket difference d - prev.
func (d Drops) Sub(prev Drops) Drops {
	for b := range d {
		d[b] -= prev[b]
	}
	return d
}

// String renders every bucket as label=count.
func (d Drops) String() string {
	parts := make([]string, len(d))
	for b, v := range d {
		parts[b] = fmt.Sprintf("%s=%d", DropBucket(b), v)
	}
	return strings.Join(parts, " ")
}

// Drops takes the host's drop census now: its own counters plus its
// egress links (each link belongs to its sending host). No counter it
// reads ever rewinds, so a window's drops are the Sub of two censuses.
func (h *Host) Drops() Drops {
	d := Drops{
		BucketResolve: h.TxResolveDrops.Value(),
		BucketBuild:   h.TxBuildDrops.Value(),
		BucketNIC:     h.NIC.Drops.Value(),
		BucketBacklog: h.St.Drops.Value(),
		BucketPath:    h.Rx.PathDrops.Value(),
		BucketL4:      h.L4Drops.Value(),
		BucketCrash:   h.CrashDrops.Value(),
	}
	h.EachLink(func(_ proto.IPv4Addr, l *devices.Link) {
		d[BucketLinkTxq] += l.Dropped.Value()
		d[BucketLinkLoss] += l.Lost.Value()
	})
	return d
}

// Drops takes the drop census over every host and link right now.
func (n *Network) Drops() (d Drops) {
	for _, h := range n.hosts {
		for b, v := range h.Drops() {
			d[b] += v
		}
	}
	return d
}

// Unaccounted is the conservation residue of a whole run: every sent
// packet must be delivered, dropped at a socket, still in flight, or
// counted in the census. Zero means the books close.
func Unaccounted(sent, delivered, sockDrops, inflight uint64, d Drops) int64 {
	return int64(sent) - int64(delivered) - int64(sockDrops) - int64(inflight) - int64(d.Total())
}
