package sim

// Sim is the scheduling surface shared by the serial Engine and the
// multi-shard Cluster. Topology and workload code holds a Sim:
// construction maps each simulated host to a logical process with
// Shard, and everything scheduled at runtime goes through the host's
// own engine. Control-plane work scheduled directly on the Sim
// (experiment samplers and fault windows with At and After, the audit
// sweep in a slot from NewSlots) runs at cluster barriers with every
// logical process parked, so it may freely read and mutate any shard's
// state.
type Sim interface {
	// Now returns the current virtual time. For a Cluster this is the
	// coordinator's clock: between runs and during control events it
	// equals the last barrier time.
	Now() Time
	// Rand returns the root RNG. Components fork it during
	// (single-threaded) construction; runtime draws must come from a
	// fork owned by exactly one logical process.
	Rand() *Rand

	// At and After schedule control-plane callbacks, which cannot be
	// cancelled. On a Cluster these run on the coordinator with all
	// shards parked. A callback scheduled again and again is bound once
	// (a method value kept in a field), so the schedule allocates
	// nothing.
	At(t Time, fn func())
	After(d Time, fn func())
	// NewSlots reserves control-plane slots (Engine.NewSlots): the timer
	// an owner re-arms or cancels, such as the audit sweep. On a Cluster
	// they live on the coordinator, so they too run with all shards
	// parked.
	NewSlots(n int, fn func(slot int)) Slots

	// Run executes until no events remain; RunUntil until the deadline.
	Run()
	RunUntil(deadline Time)
	// Stop halts the run loop. On a Cluster it must be called from
	// control context (a coordinator event or between runs).
	Stop()

	// SetEventBudget caps heap events fired plus slots run (per logical process
	// on a Cluster); Fired, Inlined and Pending aggregate across all of
	// them.
	SetEventBudget(n uint64)
	Fired() uint64
	Inlined() uint64
	Pending() int

	// Shard returns the engine owning logical process i (mapped modulo
	// NumShards); a serial engine returns itself. Host construction
	// uses this to pin each simulated machine to one shard.
	Shard(i int) *Engine
	// NumShards returns the number of logical processes.
	NumShards() int
}

var (
	_ Sim = (*Engine)(nil)
	_ Sim = (*Cluster)(nil)
)
