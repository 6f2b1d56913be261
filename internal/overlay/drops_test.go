package overlay

import (
	"testing"

	"falcon/internal/devices"
	"falcon/internal/skb"
)

// unbucketed are the drop reasons no census bucket counts. Each must be
// listed here on purpose: a new reason that lands in neither a bucket
// nor this list fails TestDropReasonCoverage.
var unbucketed = map[skb.DropReason]string{
	// Transmit-side frees of an already-built SKB: the send was counted
	// as created on the tx-msgs balance, and no host counter follows it.
	skb.DropTxRoute: "no link toward the destination host",
	skb.DropTxFrag:  "fragmentation to the link MTU failed",
	// TCP discards segments the transport already accounts for
	// (retransmits re-send the bytes).
	skb.DropTCPClosed: "segment for a closed connection",
	skb.DropTCPDup:    "duplicate segment",
	// Socket overflows are counted per socket (SocketDrops) and balanced
	// by the audit harness's sock-drops balance, outside the census.
	skb.DropSockOverflow: "socket receive queue full",
}

func TestDropReasonCoverage(t *testing.T) {
	owner := map[skb.DropReason]DropBucket{}
	for b := DropBucket(0); b < NumDropBuckets; b++ {
		for _, r := range b.Reasons() {
			if prev, dup := owner[r]; dup {
				t.Errorf("reason %v is in two buckets: %v and %v", r, prev, b)
			}
			owner[r] = b
		}
		if b.Balance() != "" && len(b.Reasons()) == 0 {
			t.Errorf("bucket %v has balance %q but no reasons to balance against", b, b.Balance())
		}
	}
	for r := skb.DropReason(0); r < skb.NumDropReasons; r++ {
		_, bucketed := owner[r]
		_, listed := unbucketed[r]
		switch {
		case !bucketed && !listed:
			t.Errorf("reason %v is in no bucket and not on the unbucketed list", r)
		case bucketed && listed:
			t.Errorf("reason %v is both bucketed (%v) and listed as unbucketed", r, owner[r])
		}
		if r.String() == "" {
			t.Errorf("reason %d has no name", r)
		}
	}
}

// TestHostDropsReadsEachCounter bumps every bucket's counter once and
// checks that exactly that bucket of the host's census moved.
func TestHostDropsReadsEachCounter(t *testing.T) {
	b := newBed(t, "", 100*devices.Gbps)
	h := b.client
	link := h.LinkTo(serverIP)
	bump := [NumDropBuckets]func(){
		BucketResolve:  h.TxResolveDrops.Inc,
		BucketBuild:    h.TxBuildDrops.Inc,
		BucketLinkTxq:  link.Dropped.Inc,
		BucketLinkLoss: link.Lost.Inc,
		BucketNIC:      h.NIC.Drops.Inc,
		BucketBacklog:  h.St.Drops.Inc,
		BucketPath:     h.Rx.PathDrops.Inc,
		BucketL4:       h.L4Drops.Inc,
		BucketCrash:    h.CrashDrops.Inc,
	}
	for bk := DropBucket(0); bk < NumDropBuckets; bk++ {
		want := h.Drops()
		want[bk]++
		bump[bk]()
		if got := h.Drops(); got != want {
			t.Errorf("bumping %s: census %v, want %v", bk.Counter(), got, want)
		}
	}
	if got, want := b.n.Drops(), h.Drops(); got != want {
		t.Errorf("network census %v, want the client's %v (the server counted nothing)", got, want)
	}
	if got := h.Drops().Total(); got != uint64(NumDropBuckets) {
		t.Errorf("Total = %d, want %d", got, NumDropBuckets)
	}
}
