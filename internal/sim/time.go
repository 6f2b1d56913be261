// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives every other component of the Falcon reproduction: CPU
// cores, network devices, links, workload generators and applications all
// schedule callbacks on a shared virtual clock with nanosecond resolution.
// Determinism is guaranteed by a strict (time, sequence) ordering of events
// and by seeded random number generators; the same seed always produces the
// same simulation, byte for byte.
package sim

import "fmt"

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulation.
type Time int64

// Duration constants for building virtual times.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}
