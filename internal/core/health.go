package core

import (
	"falcon/internal/sim"
	"falcon/internal/stats"
)

// Health-tracking defaults. Detection is deliberately asymmetric:
// blacklisting fast bounds the packets parked behind a wedged core,
// while reinstating slowly prevents a flapping core from oscillating
// placement (the hysteresis the two-choice balancer needs to stay
// stable).
const (
	// DefaultSickAfter is how many consecutive sick ticks blacklist a
	// core.
	DefaultSickAfter = 2
	// DefaultWellAfter is how many consecutive healthy ticks reinstate
	// a blacklisted core.
	DefaultWellAfter = 4
	// DefaultMinHealthy is the healthy-set floor: fewer healthy
	// FALCON_CPUS than this and Falcon declines placement, falling back
	// to the vanilla same-core path.
	DefaultMinHealthy = 2
)

// HealthConfig tunes the per-core health tracker.
type HealthConfig struct {
	// Disabled turns tracking off entirely (every core permanently
	// healthy), the pre-chaos behaviour.
	Disabled bool
	// SickAfter / WellAfter are the hysteresis streak lengths in timer
	// ticks (0 → defaults).
	SickAfter, WellAfter int
	// MinHealthy is the healthy-set floor (0 → default).
	MinHealthy int
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.SickAfter == 0 {
		h.SickAfter = DefaultSickAfter
	}
	if h.WellAfter == 0 {
		h.WellAfter = DefaultWellAfter
	}
	if h.MinHealthy == 0 {
		h.MinHealthy = DefaultMinHealthy
	}
	return h
}

// coreHealth is one FALCON_CPU's tracker state.
type coreHealth struct {
	sick       bool
	sickStreak int
	wellStreak int
	lastBusy   int64 // Acct.BusySinceBoot at the previous tick
}

func (f *Falcon) initHealth() {
	f.health = make([]coreHealth, len(f.cfg.CPUs))
	f.healthy = append([]int(nil), f.cfg.CPUs...)
}

// isHealthy reports whether a FALCON_CPU is currently in the healthy
// set. Non-FALCON cores are never consulted.
func (f *Falcon) isHealthy(core int) bool {
	for i, c := range f.cfg.CPUs {
		if c == core {
			return !f.health[i].sick
		}
	}
	return true
}

// HealthyCPUs returns the current healthy subset of FALCON_CPUS (in
// configuration order).
func (f *Falcon) HealthyCPUs() []int { return f.healthy }

// Degraded reports whether the healthy set is below the floor (Falcon
// is declining placement and the datapath runs vanilla).
func (f *Falcon) Degraded() bool { return f.degraded }

// updateHealth runs on every timer tick: it classifies each FALCON_CPU
// as sick or healthy with hysteresis, rebuilds the healthy set, and
// accounts degraded-mode time. A core is sick when it is offlined
// (visible hotplug state) or when it has queued work but made no
// execution progress since the previous tick — the soft-lockup
// watchdog's signal. The scan only reads existing accounting, schedules
// nothing, and draws no randomness, so it cannot perturb a healthy run.
func (f *Falcon) updateHealth(now sim.Time) {
	if f.cfg.Health.Disabled || len(f.cfg.CPUs) == 0 {
		return
	}
	changed := false
	for i, id := range f.cfg.CPUs {
		c := f.m.Core(id)
		h := &f.health[i]
		busy := f.m.Acct.BusySinceBoot(id)
		progressed := busy > h.lastBusy
		h.lastBusy = busy
		queued := c.QueueLen(stats.CtxHardIRQ) +
			c.QueueLen(stats.CtxSoftIRQ) +
			c.QueueLen(stats.CtxTask)
		sickSignal := c.Offline() || (queued > 0 && !progressed)
		if sickSignal {
			h.wellStreak = 0
			h.sickStreak++
			// Offlining is an explicit notification: blacklist at once.
			if !h.sick && (c.Offline() || h.sickStreak >= f.cfg.Health.SickAfter) {
				h.sick = true
				changed = true
			}
		} else {
			h.sickStreak = 0
			h.wellStreak++
			if h.sick && h.wellStreak >= f.cfg.Health.WellAfter {
				h.sick = false
				changed = true
			}
		}
	}
	if changed {
		f.healthy = f.healthy[:0]
		for i, id := range f.cfg.CPUs {
			if !f.health[i].sick {
				f.healthy = append(f.healthy, id)
			}
		}
	}
	below := len(f.healthy) < f.cfg.Health.MinHealthy
	switch {
	case below && !f.degraded:
		f.degraded = true
		f.degradedSince = now
	case !below && f.degraded:
		f.degraded = false
		f.Faults.DegradedNs.Add(uint64(now - f.degradedSince))
	}
}
