package stats

import "fmt"

// Counter is a monotonically increasing event count (packets delivered,
// bytes received, softirqs raised...). Like a kernel counter it never
// rewinds: a measurement window is the difference of two reads.
type Counter struct {
	v uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Rate converts a count accumulated over elapsed nanoseconds into a
// per-second rate.
func Rate(count uint64, elapsedNs int64) float64 {
	if elapsedNs <= 0 {
		return 0
	}
	return float64(count) * 1e9 / float64(elapsedNs)
}

// IRQKind enumerates the interrupt classes the paper counts (Fig. 4).
type IRQKind int

// Interrupt classes.
const (
	IRQHard  IRQKind = iota // hardware interrupts from the pNIC
	IRQNetRX                // NET_RX_SOFTIRQ software interrupts
	IRQRES                  // rescheduling IPIs (cross-core wakeups)
	irqKinds
)

// String returns the kernel-style name of the interrupt class.
func (k IRQKind) String() string {
	switch k {
	case IRQHard:
		return "HW"
	case IRQNetRX:
		return "NET_RX"
	case IRQRES:
		return "RES"
	default:
		return fmt.Sprintf("IRQ(%d)", int(k))
	}
}

// IRQCounters tallies interrupts per class and per core, reproducing the
// /proc/interrupts and /proc/softirqs views used in the paper's Fig. 4.
type IRQCounters struct {
	perCore [][irqKinds]uint64
}

// MakeIRQCounters returns counters for cores CPU cores, as a value to
// embed in its owner's allocation.
func MakeIRQCounters(cores int) IRQCounters {
	return IRQCounters{perCore: make([][irqKinds]uint64, cores)}
}

// Inc records one interrupt of kind k on the given core.
func (ic *IRQCounters) Inc(core int, k IRQKind) {
	ic.perCore[core][k]++
}

// Core returns the count of kind k on a single core.
func (ic *IRQCounters) Core(core int, k IRQKind) uint64 {
	return ic.perCore[core][k]
}

// Total returns the count of kind k summed over all cores.
func (ic *IRQCounters) Total(k IRQKind) uint64 {
	var t uint64
	for i := range ic.perCore {
		t += ic.perCore[i][k]
	}
	return t
}
