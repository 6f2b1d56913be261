// Package overlay assembles complete container-overlay topologies: hosts
// (machine + stack + NIC + bridge), containers (veth pairs, private IPs),
// the VXLAN tunnel fabric with its distributed key-value store mapping
// container IPs to host endpoints (as Docker overlay/Flannel do), links
// between hosts, and the transmit path. It is the integration layer that
// turns the device/stack substrates into the systems the paper measures.
package overlay

import (
	"fmt"

	"falcon/internal/proto"
	"falcon/internal/sim"
)

// EndpointInfo is what the overlay control plane knows about a container
// IP: which host carries it and the MACs needed for encapsulation.
type EndpointInfo struct {
	ContainerMAC proto.MAC
	HostIP       proto.IPv4Addr
	HostMAC      proto.MAC
}

// KVStore is the distributed key-value store backing the overlay: the
// mapping from private container IPs to public host endpoints that
// vxlan_xmit consults when encapsulating (Section 2.1). Lookups are
// local (hosts cache the full table, as Docker's gossip-backed store
// effectively provides).
type KVStore struct {
	entries map[proto.IPv4Addr]EndpointInfo
	fault   LookupFault
	// version counts mutations; cached resolutions (the tx flow cache)
	// revalidate against it so a Put/Delete invalidates them all.
	version uint64
	// partitioned marks hosts cut off from the control plane: a
	// partitioned host cannot perform fresh lookups and instead serves
	// version-pinned stale mappings from its TX flow cache (bounded
	// staleness) with retry/backoff on misses — split-brain tolerance
	// without a global fault. Keyed by host IP so everyone else stays on
	// the healthy fast path.
	partitioned map[proto.IPv4Addr]bool
}

// Version returns the store's mutation counter.
func (kv *KVStore) Version() uint64 { return kv.version }

// LookupFault models control-plane misbehaviour on the lookup path
// (internal/faults installs implementations): each consulted lookup may
// be delayed and/or transiently fail. A nil fault keeps Get purely
// local and synchronous — the healthy Docker-gossip behaviour.
type LookupFault interface {
	// Lookup is consulted once per resolution attempt — by the host at
	// hostIP, resolving containerIP — and returns the extra latency the
	// attempt pays and whether it transiently fails. The consulting
	// host's identity lets implementations keep per-host RNG streams,
	// which a sharded run needs for determinism (hosts on different
	// shards resolve in an order that depends on the shard layout).
	Lookup(hostIP, containerIP proto.IPv4Addr) (delay sim.Time, fail bool)
}

// SetFault installs (or, with nil, removes) a lookup fault.
func (kv *KVStore) SetFault(f LookupFault) { kv.fault = f }

// SetPartitioned marks (or heals) a control-plane partition for the
// host at hostIP. While set, that host's transmit path takes the
// partition-tolerant branch (stale cache serving + backoff retries).
func (kv *KVStore) SetPartitioned(hostIP proto.IPv4Addr, on bool) {
	if on {
		if kv.partitioned == nil {
			kv.partitioned = make(map[proto.IPv4Addr]bool)
		}
		kv.partitioned[hostIP] = true
		return
	}
	delete(kv.partitioned, hostIP)
}

// Partitioned reports whether the host at hostIP is cut off from the
// control plane.
func (kv *KVStore) Partitioned(hostIP proto.IPv4Addr) bool {
	return kv.partitioned[hostIP]
}

// Fault returns the installed lookup fault, nil when healthy.
func (kv *KVStore) Fault() LookupFault { return kv.fault }

// NewKVStore returns an empty store.
func NewKVStore() *KVStore {
	return &KVStore{entries: make(map[proto.IPv4Addr]EndpointInfo)}
}

// Put registers (or updates) a container IP mapping.
func (kv *KVStore) Put(containerIP proto.IPv4Addr, info EndpointInfo) {
	kv.entries[containerIP] = info
	kv.version++
}

// Get resolves a container IP.
func (kv *KVStore) Get(containerIP proto.IPv4Addr) (EndpointInfo, error) {
	info, ok := kv.entries[containerIP]
	if !ok {
		return EndpointInfo{}, fmt.Errorf("overlay: no endpoint for %s", containerIP)
	}
	return info, nil
}

// Delete removes a mapping (container teardown).
func (kv *KVStore) Delete(containerIP proto.IPv4Addr) {
	delete(kv.entries, containerIP)
	kv.version++
}

// Len returns the number of registered containers.
func (kv *KVStore) Len() int { return len(kv.entries) }
