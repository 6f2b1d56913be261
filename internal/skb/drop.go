package skb

// DropReason names why the datapath freed a packet without delivering
// it — the analogue of Linux's enum skb_drop_reason. Every terminal
// drop goes through (*SKB).Drop with one of these; the auditor's
// ledger buckets dispositions by the reason's stage name.
type DropReason uint8

const (
	DropTxRoute      DropReason = iota // no link toward the destination host
	DropTxFrag                         // frame could not be fragmented to the link MTU
	DropLinkTxq                        // link transmit queue full
	DropLinkLoss                       // random wire loss (in flight or on arrival)
	DropNICRing                        // NIC rx ring full (or capped)
	DropNICFrame                       // arriving frame failed to dissect
	DropNICDown                        // NIC down: crashed host
	DropBacklog                        // per-CPU backlog overflow
	DropStackDown                      // stack down: crashed host
	DropDecap                          // VXLAN decapsulation failed
	DropReasm                          // IP reassembly rejected the fragment
	DropBridge                         // bridge could not parse the Ethernet header
	DropFDB                            // no bridge port for the destination MAC
	DropL4Frame                        // L4 delivery could not parse the frame
	DropL4Unbound                      // no bound endpoint
	DropHostCrash                      // host crashed while the packet was inside it
	DropSockOverflow                   // socket receive queue full
	DropTCPClosed                      // segment for a closed connection
	DropTCPDup                         // duplicate TCP segment
	NumDropReasons
)

// dropNames are the ledger stage names, one per reason.
var dropNames = [NumDropReasons]string{
	DropTxRoute:      "drop:tx-route",
	DropTxFrag:       "drop:tx-frag",
	DropLinkTxq:      "drop:link-txq",
	DropLinkLoss:     "drop:link-loss",
	DropNICRing:      "drop:nic-ring",
	DropNICFrame:     "drop:nic-frame",
	DropNICDown:      "drop:nic-down",
	DropBacklog:      "drop:backlog",
	DropStackDown:    "drop:stack-down",
	DropDecap:        "drop:decap",
	DropReasm:        "drop:reasm",
	DropBridge:       "drop:bridge",
	DropFDB:          "drop:fdb",
	DropL4Frame:      "drop:l4-frame",
	DropL4Unbound:    "drop:l4-unbound",
	DropHostCrash:    "drop:host-crash",
	DropSockOverflow: "drop:sock-overflow",
	DropTCPClosed:    "drop:tcp-closed",
	DropTCPDup:       "drop:tcp-dup",
}

// String returns the reason's ledger stage name ("drop:nic-ring").
func (r DropReason) String() string { return dropNames[r] }

// Drop frees s as a drop for reason r (kfree_skb_reason): the reason is
// the packet's last stage, so the ledger files the free under it.
func (s *SKB) Drop(r DropReason) {
	s.Stage(r.String())
	s.Free()
}
