package reconfig

import (
	"fmt"
	"sort"

	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
)

// Failure-detector constants. The hysteresis is the core-health
// tracker's, lifted a level: declare death fast (a corpse bounds the
// packets blackholed at its NIC), re-admit slowly (a host flapping
// across its reboot must not oscillate the KV mappings).
const (
	// detectPeriod is the heartbeat scan cadence.
	detectPeriod = 500 * sim.Microsecond
	// detectTimeout is the heartbeat age past which a scan counts the
	// host sick. Heartbeats ride the 1ms machine tick, so the timeout
	// must exceed one tick period.
	detectTimeout = 2 * sim.Millisecond
	// detectSickAfter is how many consecutive sick scans declare a host
	// dead (fail-over fires).
	detectSickAfter = 2
	// detectWellAfter is how many consecutive fresh-heartbeat scans
	// re-admit a rebooted host (rejoin fires).
	detectWellAfter = 4
	// failoverTransitUs is the fail-over remap's transit gap: the window
	// between the dead host's mappings being deleted and the standby
	// twins' publication.
	failoverTransitUs = 200
)

// hostMonitor is the detector's per-host tracker state.
type hostMonitor struct {
	host *overlay.Host
	twin *overlay.Host
	// beatAt is the host's latest heartbeat. It is written only by the
	// monitored host's own shard (an OnTick callback) and read only by
	// the coordinator at barriers, where every shard is parked — the
	// worker pool's park/wake edges order the accesses.
	beatAt     sim.Time
	sickStreak int
	wellStreak int
	dead       bool
}

// detector is the failure-driven half of the Manager: a deterministic
// sim-time heartbeat detector whose declarations produce generation
// bumps exactly like scheduled actions do.
type detector struct {
	monitors map[string]*hostMonitor
	order    []string // sorted monitor names: scan order is deterministic
}

// startDetector arms a failure detector over the given hosts. twins
// maps each monitored host's name to the standby host that receives its
// containers on fail-over (every container needs a standby twin there,
// as with a scheduled drain). Scans are pre-declared coordinator events
// at every detectPeriod in (from, until] — the event set is fixed up
// front, so the schedule is identical at every shard count. Heartbeats
// ride each host's machine tick; a crashed host stops beating and, after
// detectTimeout + detectSickAfter scans, the detector deletes its KV
// mappings, purges every survivor's cached routes to it, lands the
// mappings on the twins failoverTransitUs later, and detaches the
// corpse's LP through the quiesce ladder. A rebooted host beats again
// and is re-admitted after detectWellAfter fresh scans (its containers
// stay on the twins, as after a drain+add).
func (m *Manager) startDetector(twins map[string]string, from, until sim.Time) error {
	if until <= from {
		return fmt.Errorf("reconfig: detector window [%v,%v) is empty", from, until)
	}
	d := &detector{monitors: make(map[string]*hostMonitor)}
	for name, twinName := range twins {
		h := m.hostByName(name)
		if h == nil {
			return fmt.Errorf("reconfig: detector: unknown host %q", name)
		}
		tw := m.hostByName(twinName)
		if tw == nil {
			return fmt.Errorf("reconfig: detector: unknown twin %q for host %q", twinName, name)
		}
		for _, c := range h.Containers() {
			if tw.ContainerByIP(c.IP) == nil {
				return fmt.Errorf("reconfig: detector: twin %q has no standby for container %v", twinName, c.IP)
			}
		}
		mon := &hostMonitor{host: h, twin: tw, beatAt: from}
		d.monitors[name] = mon
		d.order = append(d.order, name)
		h.M.OnTick(func(now sim.Time) {
			if !mon.host.Crashed() {
				mon.beatAt = now
			}
		})
	}
	sort.Strings(d.order)
	m.det = d
	for t := from + detectPeriod; t <= until; t += detectPeriod {
		m.Net.E.At(t, m.detectorScan)
	}
	return nil
}

// detectorScan is one coordinator-time sweep over every monitor, in
// sorted host order. It reads heartbeat ages, applies the hysteresis,
// and fires fail-over / rejoin transitions. Like the core-health scan,
// it draws no randomness and schedules nothing on a healthy pass.
func (m *Manager) detectorScan() {
	d := m.det
	now := m.Net.E.Now()
	for _, name := range d.order {
		mon := d.monitors[name]
		if now-mon.beatAt > detectTimeout {
			mon.wellStreak = 0
			mon.sickStreak++
			if !mon.dead && mon.sickStreak >= detectSickAfter {
				mon.dead = true
				m.failover(mon, now)
			}
			continue
		}
		mon.sickStreak = 0
		mon.wellStreak++
		if mon.dead && mon.wellStreak >= detectWellAfter {
			mon.dead = false
			m.rejoin(mon, now)
		}
	}
}

// failover is the failure-driven generation bump: the detector declared
// mon's host dead. Every survivor's cached route to the corpse is
// purged immediately (flow cache + negative cache), then the host's
// containers remap onto the twin's standbys through the same
// delete/transit/land sequence a scheduled drain uses, and the quiesce
// ladder detaches the dead LP once nothing is left in flight toward it.
func (m *Manager) failover(mon *hostMonitor, t sim.Time) {
	h := mon.host
	a := Action{
		Kind:      KindFailover,
		AtMs:      int(t / sim.Millisecond),
		Host:      h.Name,
		To:        mon.twin.Name,
		TransitUs: failoverTransitUs,
	}
	rec := m.open(a, t)
	ips := make([]proto.IPv4Addr, 0, len(h.Containers()))
	for _, c := range h.Containers() {
		ips = append(ips, c.IP)
	}
	for _, p := range m.Net.Hosts() {
		if p != h {
			p.PurgeDeadHost(h.IP, ips)
		}
	}
	m.beginDrain(a, h, rec)
	m.commit(rec)
}

// rejoin re-admits a rebooted host: a generation bump records the
// recovery and cancels any fail-over quiesce ladder still running. The
// host's ticker was restarted by the reboot itself (that is where the
// fresh heartbeats came from); its containers stay on the twins.
func (m *Manager) rejoin(mon *hostMonitor, t sim.Time) {
	h := mon.host
	rec := m.open(Action{Kind: KindRejoin, AtMs: int(t / sim.Millisecond), Host: h.Name}, t)
	rec.Reattached = true
	delete(m.draining, h.Name)
	m.commit(rec)
}
