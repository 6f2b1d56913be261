// Package steering implements the kernel's existing scaling techniques —
// RSS (hardware receive-side scaling across NIC queues) and RPS (software
// receive packet steering) — which the paper shows are inter-flow only:
// every stage of a given flow hashes to the same CPU, so they cannot
// parallelize a single flow's prolonged overlay data path.
package steering

// RSS models a multi-queue NIC's hash indirection table: a flow hash
// selects a queue, and each queue's hardirq is affined to one core.
type RSS struct {
	// QueueCores maps queue index to the core its IRQ is affined to.
	QueueCores []int
}

// CoreFor returns the core whose queue receives a flow with this hash.
func (r *RSS) CoreFor(hash uint32) int {
	if len(r.QueueCores) == 0 {
		return 0
	}
	return r.QueueCores[hash%uint32(len(r.QueueCores))]
}

// RPS models the rps_cpus mask of a device: get_rps_cpu picks a CPU from
// the flow hash. Packets of one flow always map to the same CPU, which
// both guarantees in-order delivery and prevents intra-flow scaling.
type RPS struct {
	// CPUs is the steering mask (cores eligible to receive softirqs).
	CPUs []int
	// Enabled mirrors /sys/class/net/<dev>/queues/rx-0/rps_cpus != 0.
	Enabled bool
}

// CPUFor returns the steering target for a flow hash and whether
// steering applies. With RPS disabled (or an empty mask) packets stay on
// the current core.
func (r *RPS) CPUFor(hash uint32, current int) int {
	if !r.Enabled || len(r.CPUs) == 0 {
		return current
	}
	return r.CPUs[hash%uint32(len(r.CPUs))]
}
