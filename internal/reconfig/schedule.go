// Package reconfig implements generation-based hot reconfiguration of a
// running overlay network: immutable configuration generations covering
// topology membership (host drain/add with container remap), steering
// policy (Falcon/RPS flips), and cost profile (kernel upgrades), applied
// at deterministic effective sim-times from a declarative schedule. The
// same schedule also carries the disturbances that are not generations:
// host crashes, whose fail-over a heartbeat detector drives, and KV
// partitions.
//
// Swaps are RCU-style: a generation bump invalidates every TX flow-cache
// entry, so new transmissions resolve against the new configuration,
// while packets already inside the datapath finish on the state they
// were built with — the audit ledger accounts every one of them, so no
// transition loses a packet silently. All control events run through the
// simulation's coordinator-time API (Sim.At/After), which on a sharded
// cluster executes at barriers with every logical process parked; the
// same schedule therefore produces byte-identical runs at -shards 1 and
// -shards N.
package reconfig

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"falcon/internal/costmodel"
)

// Action kinds.
const (
	// KindKernelUpgrade swaps a host's cost profile (the Kernel field
	// names it, e.g. "linux-5.4") — a rolling kernel upgrade.
	KindKernelUpgrade = "kernel-upgrade"
	// KindSteerFlip enables (Enable=true) or disables Falcon steering on
	// a host. The host must have Falcon attached when the schedule is
	// armed; disable detaches it from the receive path, enable restores
	// the same instance (its tick subscription persists either way).
	KindSteerFlip = "steer-flip"
	// KindRPSFlip toggles the host's rps_cpus mask on or off.
	KindRPSFlip = "rps-flip"
	// KindDrain removes a host from service: its containers' KV mappings
	// are deleted at the effective time and re-published on the To
	// host's standby twins TransitUs later; a quiesce ladder then waits
	// for the datapath to empty before detaching the host's LP (timer
	// ticker stopped).
	KindDrain = "drain"
	// KindAdd reverses a drain: the host's ticker restarts and it
	// rejoins the cluster. Container mappings stay wherever the drain
	// put them (rebalancing back is a second drain the other way).
	KindAdd = "add"
	// KindCrash kills a host at AtMs with packets in its rings — no
	// drain, no warning — and reboots it at UntilMs (0: it stays dead).
	// The failure detector watches the host from the moment the
	// schedule is armed and fails its containers over to the To host's
	// standby twins; the crash itself opens no generation, only the
	// detector's fail-over and rejoin do.
	KindCrash = "crash"
	// KindPartition cuts a host off from the KV control plane from AtMs
	// until UntilMs (0: the rest of the run). The host serves stale
	// flow-cache mappings within a bounded staleness and retries misses
	// with backoff; at the heal its caches reconcile. Opens no
	// generation.
	KindPartition = "partition"

	// KindFailover and KindRejoin are failure-driven generations: the
	// Manager's failure detector emits them when heartbeats stop
	// (containers remap onto standby twins) and when a rebooted host
	// beats again. They appear in GenRecords but are NOT valid in a
	// declarative Schedule — a crash is scheduled, its fail-over is
	// detected (Validate rejects them as unknown kinds).
	KindFailover = "fail-over"
	KindRejoin   = "rejoin"
)

// Action is one scheduled reconfiguration step. Effective times are
// relative to the base time the schedule is armed with (experiments use
// their warmup end), in whole milliseconds.
type Action struct {
	Kind string `json:"kind"`
	AtMs int    `json:"at_ms"`
	// Host names the target host.
	Host string `json:"host"`
	// To names the host whose standby twins receive the containers
	// (drain and crash only).
	To string `json:"to,omitempty"`
	// Kernel is the cost profile to swap to (kernel-upgrade only).
	Kernel string `json:"kernel,omitempty"`
	// Enable is the flip direction (steer-flip/rps-flip only).
	Enable *bool `json:"enable,omitempty"`
	// TransitUs is the container migration gap for a drain: the window
	// between the old mapping's deletion and the new one's publication,
	// during which senders see definitive KV misses (the measurable
	// blackout).
	TransitUs int `json:"transit_us,omitempty"`
	// UntilMs ends a crash (the reboot) or a partition (the heal), as an
	// offset from the same base as AtMs; 0 means the rest of the run.
	UntilMs int `json:"until_ms,omitempty"`
}

// Schedule is an ordered list of reconfiguration actions.
type Schedule struct {
	Actions []Action `json:"actions"`
}

// Validate checks structural well-formedness: known kinds and kernel
// names, required per-kind fields, non-decreasing effective times,
// add-follows-drain pairing, at most one crash per host (a second crash
// would race its own detector ladder) and no overlapping partitions of
// one host (the first heal would end both). Host-name resolution
// happens when a Manager arms the schedule against a concrete network.
func (s *Schedule) Validate() error {
	lastAt := 0
	draining := map[string]bool{}
	crashed := map[string]bool{}
	// partitionEnd holds each partitioned host's heal offset; -1 marks a
	// partition that lasts the rest of the run.
	partitionEnd := map[string]int{}
	for i, a := range s.Actions {
		if a.AtMs < 0 {
			return fmt.Errorf("reconfig: action %d: negative at_ms %d", i, a.AtMs)
		}
		if a.AtMs < lastAt {
			return fmt.Errorf("reconfig: action %d: at_ms %d before previous %d (schedule must be time-ordered)", i, a.AtMs, lastAt)
		}
		lastAt = a.AtMs
		if a.Host == "" {
			return fmt.Errorf("reconfig: action %d (%s): missing host", i, a.Kind)
		}
		if a.UntilMs != 0 {
			if a.Kind != KindCrash && a.Kind != KindPartition {
				return fmt.Errorf("reconfig: action %d: until_ms on a %s action", i, a.Kind)
			}
			if a.UntilMs <= a.AtMs {
				return fmt.Errorf("reconfig: action %d: until_ms %d not after at_ms %d", i, a.UntilMs, a.AtMs)
			}
		}
		switch a.Kind {
		case KindKernelUpgrade:
			if a.Kernel == "" {
				return fmt.Errorf("reconfig: action %d: kernel-upgrade without kernel", i)
			}
			if !costmodel.Known(a.Kernel) {
				return fmt.Errorf("reconfig: action %d: kernel-upgrade to unknown kernel %q", i, a.Kernel)
			}
		case KindSteerFlip, KindRPSFlip:
			if a.Enable == nil {
				return fmt.Errorf("reconfig: action %d: %s without enable", i, a.Kind)
			}
		case KindDrain:
			if a.To == "" || a.To == a.Host {
				return fmt.Errorf("reconfig: action %d: drain of %q needs a distinct to-host", i, a.Host)
			}
			if a.TransitUs < 0 {
				return fmt.Errorf("reconfig: action %d: negative transit_us", i)
			}
			if draining[a.Host] {
				return fmt.Errorf("reconfig: action %d: host %q drained twice without add", i, a.Host)
			}
			draining[a.Host] = true
		case KindAdd:
			if !draining[a.Host] {
				return fmt.Errorf("reconfig: action %d: add of %q without a preceding drain", i, a.Host)
			}
			delete(draining, a.Host)
		case KindCrash:
			if a.To == "" || a.To == a.Host {
				return fmt.Errorf("reconfig: action %d: crash of %q needs a distinct to-host", i, a.Host)
			}
			if crashed[a.Host] {
				return fmt.Errorf("reconfig: action %d: host %q crashed twice", i, a.Host)
			}
			crashed[a.Host] = true
		case KindPartition:
			if end, ok := partitionEnd[a.Host]; ok && (end < 0 || a.AtMs < end) {
				return fmt.Errorf("reconfig: action %d: partition of %q overlaps the previous one", i, a.Host)
			}
			partitionEnd[a.Host] = a.UntilMs
			if a.UntilMs == 0 {
				partitionEnd[a.Host] = -1
			}
		default:
			return fmt.Errorf("reconfig: action %d: unknown kind %q", i, a.Kind)
		}
	}
	return nil
}

// FromJSON parses a schedule and validates it. Unknown fields are
// errors, so a file in some other shape is rejected rather than read
// as an empty schedule.
func FromJSON(data []byte) (*Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("reconfig: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("reconfig: trailing data after the schedule")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a schedule from a JSON file (the -reconfig flag).
func LoadFile(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reconfig: %w", err)
	}
	return FromJSON(data)
}
