package stats

import "fmt"

// CPUContext classifies what a core spends its cycles on. The paper's
// per-core utilization figures (5, 11, 19) break CPU time into hardirq,
// softirq and task (user) time.
type CPUContext int

// CPU contexts.
const (
	CtxIdle CPUContext = iota
	CtxHardIRQ
	CtxSoftIRQ
	CtxTask
	NumContexts // the number of contexts
)

// String names the context as in the paper's figures.
func (c CPUContext) String() string {
	switch c {
	case CtxIdle:
		return "idle"
	case CtxHardIRQ:
		return "hardirq"
	case CtxSoftIRQ:
		return "softirq"
	case CtxTask:
		return "task"
	default:
		return fmt.Sprintf("ctx(%d)", int(c))
	}
}
