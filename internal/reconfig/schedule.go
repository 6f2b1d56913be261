// Package reconfig implements generation-based hot reconfiguration of a
// running overlay network: immutable configuration generations covering
// topology membership (host drain/add with container remap), steering
// policy (Falcon/RPS flips), and cost profile (kernel upgrades), applied
// at deterministic effective sim-times from a declarative schedule.
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
	"encoding/json"
	"fmt"
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

	// KindFailover and KindRejoin are failure-driven generations: the
	// Manager's failure detector emits them when heartbeats stop
	// (containers remap onto standby twins) and when a rebooted host
	// beats again. They appear in GenRecords but are NOT valid in a
	// declarative Schedule — failures are detected, never scheduled
	// (Validate rejects them as unknown kinds).
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
	// To names the host receiving the drained containers (drain only).
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
}

// Schedule is an ordered list of reconfiguration actions.
type Schedule struct {
	Actions []Action `json:"actions"`
}

// Validate checks structural well-formedness: known kinds and kernel
// names, required per-kind fields, non-decreasing effective times, and add-follows-drain
// pairing. Host-name resolution happens when a Manager arms the
// schedule against a concrete network.
func (s *Schedule) Validate() error {
	lastAt := 0
	draining := map[string]bool{}
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
		default:
			return fmt.Errorf("reconfig: action %d: unknown kind %q", i, a.Kind)
		}
	}
	return nil
}

// FromJSON parses a schedule and validates it.
func FromJSON(data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("reconfig: %w", err)
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
