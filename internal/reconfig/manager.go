package reconfig

import (
	"fmt"

	falconcore "falcon/internal/core"
	"falcon/internal/faults"
	"falcon/internal/overlay"
	"falcon/internal/sim"
)

// Quiesce-ladder parameters: after a drain's effective time the manager
// re-checks the drained host's datapath at a fixed period until it is
// empty (or the ladder runs out, leaving the host attached — a bug the
// record makes visible). The ladder is bounded and every check is an
// ordinary coordinator event, so the schedule's event set is identical
// at every shard count.
const (
	quiescePeriod    = 100 * sim.Microsecond
	quiesceMaxChecks = 200
)

// GenRecord documents one applied generation: the action, when it took
// effect, the drop census at its boundary (counters the instant before
// application), and — for drains — when the host's datapath quiesced
// and whether its LP detached.
type GenRecord struct {
	Gen     uint64
	Action  Action
	Applied sim.Time
	// Drops is the cumulative snapshot at the generation boundary; the
	// drops attributed to this generation are the next boundary's
	// snapshot minus this one.
	Drops overlay.Drops
	// QuiescedAt is when the drained host's datapath emptied (-1 while
	// pending or for non-drain actions); Detached reports the LP's
	// ticker was stopped, Reattached that an add restarted it.
	QuiescedAt sim.Time
	Detached   bool
	Reattached bool
}

// Manager arms a validated schedule against a live network. All
// application happens through pre-declared simulation events; after Arm
// the manager is driven entirely by the event queue.
type Manager struct {
	Net   *overlay.Network
	Sched *Schedule

	// OnGeneration, when set, observes each record the instant its
	// generation applies (drain records are still mutating: quiesce
	// fields fill in later).
	OnGeneration func(*GenRecord)

	records  []*GenRecord
	falcons  map[string]*falconcore.Falcon
	draining map[string]*GenRecord
	armed    bool
	det      *detector
}

// New builds a manager for the network and schedule.
func New(net *overlay.Network, sched *Schedule) *Manager {
	return &Manager{
		Net:      net,
		Sched:    sched,
		falcons:  make(map[string]*falconcore.Falcon),
		draining: make(map[string]*GenRecord),
	}
}

// Records returns the per-generation records in application order.
func (m *Manager) Records() []*GenRecord { return m.records }

// Arm resolves the schedule against the network and pre-schedules every
// action at base + AtMs. Must run before the simulation starts (or at
// least before the first effective time); it captures each host's
// Falcon instance so steer-flips restore the exact engine rather than
// constructing a second one (falconcore.New subscribes to the machine
// tick — building twice would double-subscribe).
//
// Crashes and partitions are faults, not generations. When the schedule
// has any, Arm starts the failure detector over (base, until] for the
// crashed hosts, then installs the crash windows and after them the
// partition windows on one fault injector. A window with UntilMs 0 ends
// a second past until, so it never reverts within the run.
func (m *Manager) Arm(base, until sim.Time) error {
	if m.armed {
		return fmt.Errorf("reconfig: schedule armed twice")
	}
	if err := m.Sched.Validate(); err != nil {
		return err
	}
	for _, h := range m.Net.Hosts() {
		if h.Falcon != nil {
			m.falcons[h.Name] = h.Falcon
		}
	}
	at := func(ms int) sim.Time { return base + sim.Time(ms)*sim.Millisecond }
	twins := map[string]string{}
	var crashes, partitions faults.Plan
	for i := range m.Sched.Actions {
		a := m.Sched.Actions[i]
		h := m.hostByName(a.Host)
		if h == nil {
			return fmt.Errorf("reconfig: action %d: unknown host %q", i, a.Host)
		}
		switch a.Kind {
		case KindSteerFlip:
			if m.falcons[a.Host] == nil {
				return fmt.Errorf("reconfig: action %d: steer-flip on %q, which has no Falcon attached", i, a.Host)
			}
		case KindDrain:
			dst := m.hostByName(a.To)
			if dst == nil {
				return fmt.Errorf("reconfig: action %d: unknown drain target %q", i, a.To)
			}
			for _, c := range h.Containers() {
				if dst.ContainerByIP(c.IP) == nil {
					return fmt.Errorf("reconfig: action %d: drain target %q has no standby twin for container %v", i, a.To, c.IP)
				}
			}
		case KindCrash, KindPartition:
			end := until + sim.Second
			if a.UntilMs > 0 {
				end = at(a.UntilMs)
			}
			it := faults.Item{At: at(a.AtMs), For: end - at(a.AtMs)}
			if a.Kind == KindCrash {
				twins[a.Host] = a.To
				it.Fault = &faults.HostCrash{Host: h}
				crashes.Items = append(crashes.Items, it)
			} else {
				it.Fault = &faults.KVPartition{KV: m.Net.KV, Host: h}
				partitions.Items = append(partitions.Items, it)
			}
			continue
		}
		t := at(a.AtMs)
		m.Net.E.At(t, func() { m.apply(a, h, t) })
	}
	if len(twins) > 0 {
		if err := m.startDetector(twins, base, until); err != nil {
			return err
		}
	}
	if len(crashes.Items)+len(partitions.Items) > 0 {
		in := faults.NewInjector(m.Net.E)
		in.Install(crashes)
		in.Install(partitions)
	}
	m.armed = true
	return nil
}

func (m *Manager) hostByName(name string) *overlay.Host {
	for _, h := range m.Net.Hosts() {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// open starts the record of a generation applied at t: the generation
// bump plus the drop census, taken before the action mutates anything,
// so the census marks the generation boundary exactly.
func (m *Manager) open(a Action, t sim.Time) *GenRecord {
	return &GenRecord{Gen: m.Net.BumpGeneration(), Action: a, Applied: t,
		Drops: m.Net.Drops(), QuiescedAt: -1}
}

// commit appends an applied generation's record and reports it.
func (m *Manager) commit(rec *GenRecord) {
	m.records = append(m.records, rec)
	if m.OnGeneration != nil {
		m.OnGeneration(rec)
	}
}

// apply executes one action at its effective time.
func (m *Manager) apply(a Action, h *overlay.Host, t sim.Time) {
	rec := m.open(a, t)
	switch a.Kind {
	case KindKernelUpgrade:
		h.SetKernel(a.Kernel)
	case KindSteerFlip:
		if *a.Enable {
			f := m.falcons[a.Host]
			h.Falcon = f
			h.Rx.Falcon = f
		} else {
			h.DisableFalcon()
		}
	case KindRPSFlip:
		h.Rx.RPS.Enabled = *a.Enable
	case KindDrain:
		m.beginDrain(a, h, rec)
	case KindAdd:
		delete(m.draining, h.Name) // cancels a still-running quiesce ladder
		h.M.StartTicker()
		rec.Reattached = true
	}
	m.commit(rec)
}

// beginDrain unpublishes the host's containers, schedules their landing
// on the target's standby twins after the transit gap, and starts the
// quiesce ladder. Senders hit definitive KV misses during the gap —
// counted resolve drops, never silent loss — and the Put bumps the KV
// version, which purges the negative-cache entries those misses left
// behind.
func (m *Manager) beginDrain(a Action, h *overlay.Host, rec *GenRecord) {
	dst := m.hostByName(a.To)
	for _, c := range h.Containers() {
		m.Net.KV.Delete(c.IP)
	}
	land := func() {
		for _, c := range h.Containers() {
			if twin := dst.ContainerByIP(c.IP); twin != nil {
				m.Net.KV.Put(c.IP, twin.Endpoint())
			}
		}
	}
	if transit := sim.Time(a.TransitUs) * sim.Microsecond; transit > 0 {
		m.Net.E.After(transit, land)
	} else {
		land()
	}
	m.draining[h.Name] = rec
	for i := 1; i <= quiesceMaxChecks; i++ {
		m.Net.E.After(sim.Time(i)*quiescePeriod, func() { m.quiesceCheck(h, rec) })
	}
}

// quiesceCheck is one rung of the drain ladder: once the host's own
// datapath is empty AND every peer's link toward it carries nothing,
// the host detaches (ticker stopped — its LP schedules no further
// recurring work). Checks after detach, or after an add superseded the
// drain, are no-ops.
func (m *Manager) quiesceCheck(h *overlay.Host, rec *GenRecord) {
	if rec.Detached || m.draining[h.Name] != rec {
		return
	}
	if rec.Action.Kind == KindFailover && !h.Crashed() {
		// The host rebooted before its fail-over ladder finished:
		// detaching now would stop the rebooted ticker and starve the
		// detector of the heartbeats re-admission needs. The rejoin
		// record cancels the remaining rungs.
		return
	}
	if !h.Quiesced() {
		return
	}
	for _, p := range m.Net.Hosts() {
		if p == h {
			continue
		}
		if l := p.LinkTo(h.IP); l != nil && l.QueueLen() > 0 {
			return
		}
	}
	rec.QuiescedAt = m.Net.E.Now()
	rec.Detached = true
	h.M.StopTicker()
}
