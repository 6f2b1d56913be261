package faults

import (
	"fmt"

	"falcon/internal/overlay"
)

// HostCrash kills a whole host for the window: the NIC and stack go
// down, every queue-resident packet (rx rings, GRO holds, backlogs)
// dies into the audit-accounted crash drop bucket, and arriving or
// locally-sent packets blackhole the same way until Revert reboots the
// host. The crash itself is instantaneous and mechanical — detection,
// container fail-over and LP detach are the reconfig failure detector's
// job, driven by the heartbeats this fault silences.
type HostCrash struct {
	Host *overlay.Host
}

func (f *HostCrash) Name() string { return fmt.Sprintf("host-crash(%s)", f.Host.Name) }

func (f *HostCrash) Apply(*Injector) { f.Host.Crash() }

func (f *HostCrash) Revert(*Injector) { f.Host.Reboot() }

// KVPartition cuts one host off from the overlay control plane for the
// window: its transmit path serves version-pinned stale mappings from
// the TX flow cache (bounded staleness), retries remap misses with
// backoff, and on heal reconciles by dropping every cached resolution —
// no duplicate delivery, because the partitioned host never held a
// packet back, only mappings.
type KVPartition struct {
	KV   *overlay.KVStore
	Host *overlay.Host
}

func (f *KVPartition) Name() string { return fmt.Sprintf("kv-partition(%s)", f.Host.Name) }

func (f *KVPartition) Apply(*Injector) { f.KV.SetPartitioned(f.Host.IP, true) }

func (f *KVPartition) Revert(*Injector) {
	f.KV.SetPartitioned(f.Host.IP, false)
	f.Host.ReconcileKV()
}
