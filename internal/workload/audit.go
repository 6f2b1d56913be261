package workload

import (
	"fmt"
	"io"
	"sort"

	"falcon/internal/audit"
	"falcon/internal/overlay"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/socket"
)

// EnableAudit attaches a run auditor to the testbed's hosts (see
// AuditHosts). Call before traffic starts.
func (tb *Testbed) EnableAudit(cfg audit.Config) *audit.Auditor {
	tb.Audit = AuditHosts(tb.E, tb.Hosts(), cfg)
	return tb.Audit
}

// AuditHosts attaches a run auditor to hosts on simulation e: the SKB
// lifecycle ledger on every host's transmit path, one conservation
// balance per named drop stage (every counter the datapath increments
// when it frees a packet must match the ledger's dispositions at that
// stage), queue validation over every NIC ring and socket receive
// queue, and a per-core softirq watchdog. Call after the hosts are
// built and before sockets open or traffic starts.
//
// The auditor observes and never mutates: enabling it leaves the run's
// schedule — and therefore its printed output — byte-identical.
func AuditHosts(e sim.Sim, hosts []*overlay.Host, cfg audit.Config) *audit.Auditor {
	a := audit.New(e, cfg)

	sum := func(get func(h *overlay.Host) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, h := range hosts {
				n += get(h)
			}
			return n
		}
	}

	// Every census bucket with a balance pairs its counter with the
	// ledger's frees under its drop reasons; a packet that vanishes
	// without touching its bucket's counter (or vice versa) breaks the
	// pair immediately.
	for b := overlay.DropBucket(0); b < overlay.NumDropBuckets; b++ {
		if b.Balance() == "" {
			continue
		}
		stages := make([]string, len(b.Reasons()))
		for i, r := range b.Reasons() {
			stages[i] = r.String()
		}
		a.Balance(b.Balance(),
			[]audit.Term{audit.T(b.Counter(), sum(func(h *overlay.Host) uint64 { return h.Drops()[b] }))},
			[]audit.Term{audit.T("ledger", a.Disposed(stages...))})
	}
	a.Balance("gro-absorbed",
		[]audit.Term{
			audit.T("nic.GROMerged", sum(func(h *overlay.Host) uint64 { return h.NIC.GROMerged() })),
			audit.T("innerGROMerged", sum(func(h *overlay.Host) uint64 { return h.Rx.InnerGROMerged() })),
		},
		[]audit.Term{audit.T("ledger", a.Disposed("gro-absorbed"))})
	sockDrops := a.Balance("sock-drops",
		[]audit.Term{}, // per-socket terms appended on open
		[]audit.Term{audit.T("ledger", a.Disposed(skb.DropSockOverflow.String()))})
	delivered := a.Balance("delivered",
		[]audit.Term{}, // per-socket terms appended on open
		[]audit.Term{audit.T("ledger", a.Disposed("delivered"))})

	// The transmit equation: every message entering sendL4 either
	// becomes a ledgered SKB, is counted as a resolve/build drop, or is
	// still in flight through asynchronous KV resolution.
	a.Balance("tx-msgs",
		[]audit.Term{audit.T("tx.Msgs", sum(func(h *overlay.Host) uint64 { return h.TxMsgs.Value() }))},
		[]audit.Term{
			audit.T("skb.created", a.CreatedAt(overlay.TxSite)),
			audit.T("tx.ResolveDrops", sum(func(h *overlay.Host) uint64 { return h.TxResolveDrops.Value() })),
			audit.T("tx.BuildDrops", sum(func(h *overlay.Host) uint64 { return h.TxBuildDrops.Value() })),
			audit.T("tx.Pending", sum(func(h *overlay.Host) uint64 { return h.TxPending() })),
		})

	for _, h := range hosts {
		h := h
		// Each host writes the one ledger through a tap that stamps with
		// its own engine's clock.
		h.Audit = a.For(h.E)
		h.OnSocketOpen = func(port uint16, sk *socket.Socket) {
			name := fmt.Sprintf("%s:sock:%d", h.Name, port)
			delivered.AddLHS(audit.T(name, sk.Consumed.Value))
			sockDrops.AddLHS(audit.T(name, sk.SocketDrops.Value))
			a.AddQueue(name, sk.RcvQueue())
		}
		a.AddQueues(func(yield func(name string, q *skb.Queue)) {
			h.NIC.EachRing(func(core int, ring *skb.Queue) {
				yield(fmt.Sprintf("%s:nic-ring:%d", h.Name, core), ring)
			})
		})
		for c := 0; c < h.M.NumCores(); c++ {
			c := c
			core := h.M.Core(c)
			a.Watch(fmt.Sprintf("%s:core%d", h.Name, c), func() audit.WatchState {
				local, remote, _, _ := h.St.BacklogState(c)
				ring, _, _ := h.NIC.QueueState(c)
				return audit.WatchState{
					Queued:   local + remote + ring,
					Progress: uint64(h.M.Acct.BusySinceBoot(c)),
					Frozen:   core.Stalled() || core.Offline(),
				}
			})
		}
		a.AddDump(func(w io.Writer) { dumpHost(w, h) })
	}
	a.Start()
	return a
}

// dumpHost renders one host's per-core state for watchdog reports and
// failure dumps.
func dumpHost(w io.Writer, h *overlay.Host) {
	fmt.Fprintf(w, "host %s: txmsgs=%d pending=%d drops: %v\n",
		h.Name, h.TxMsgs.Value(), h.TxPending(), h.Drops())
	for c := 0; c < h.M.NumCores(); c++ {
		core := h.M.Core(c)
		local, remote, pending, draining := h.St.BacklogState(c)
		ring, budget, active := h.NIC.QueueState(c)
		if local+remote+ring == 0 && core.Idle() && !core.Stalled() && !core.Offline() {
			continue // only report cores with state worth reading
		}
		fmt.Fprintf(w, "  core %2d: backlog=%d/%d pending=%t draining=%t ring=%d budget=%d napi=%t idle=%t stalled=%t offline=%t\n",
			c, local, remote, pending, draining, ring, budget, active,
			core.Idle(), core.Stalled(), core.Offline())
	}
	if h.Falcon != nil {
		healthy := append([]int(nil), h.Falcon.HealthyCPUs()...)
		sort.Ints(healthy)
		fmt.Fprintf(w, "  falcon: healthy=%v degraded=%t\n", healthy, h.Falcon.Degraded())
	}
}
