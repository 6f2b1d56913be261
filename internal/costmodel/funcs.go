// Package costmodel is the single calibration point of the simulation:
// it assigns every kernel function in the modelled datapath a CPU cost
// (base nanoseconds per invocation plus nanoseconds per byte). All
// devices and stack layers charge cores through this table, so every
// experiment draws from one consistent calibration.
//
// Two profiles reproduce the two kernels the paper evaluates (4.19 and
// 5.4): the paper notes 5.4's sk_buff-allocation rework brought both
// improvements and regressions, which the profiles encode.
package costmodel

// Func identifies a datapath function for costing and profiling. The
// names mirror the kernel symbols in the paper's Figures 3, 6 and 8.
type Func int

// Datapath functions.
const (
	FnHardIRQ        Func = iota // pNIC_interrupt: hardirq top half
	FnNAPIPoll                   // mlx5e_napi_poll: per-poll overhead
	FnSKBAlloc                   // skb allocation + DMA unmap per packet
	FnGROReceive                 // napi_gro_receive: coalescing work
	FnNetifReceive               // __netif_receive_skb: L2 demux, taps
	FnRPS                        // get_rps_cpu + enqueue_to_backlog
	FnIPRcv                      // ip_rcv: L3 validation and routing
	FnUDPRcv                     // udp_rcv: L4 demux
	FnTCPRcv                     // tcp_v4_rcv: L4 + ack/window processing
	FnVXLANRcv                   // vxlan_rcv: outer header strip (decap)
	FnGROCellPoll                // gro_cell_poll: VXLAN device NAPI poll
	FnBridge                     // br_handle_frame: FDB lookup + forward
	FnVethXmit                   // veth_xmit: cross the veth pair
	FnBacklog                    // process_backlog: per-packet poll cost
	FnSocketDeliver              // socket lookup, buffer charge, wakeup
	FnUserCopy                   // syscall + copy_to_user
	FnAppWork                    // application-level processing
	FnTxStack                    // sendmsg through container L4/L3/L2
	FnVXLANXmit                  // vxlan_xmit: encapsulation on transmit
	FnTxNIC                      // pNIC tx queue + doorbell
	FnEnqueueRemote              // enqueue_to_backlog on another CPU
	FnIPIRaise                   // smp_call IPI to signal a remote core
	FnSoftIRQEntry               // do_softirq entry/exit amortized
	FnRxCacheLookup              // RX flow-cache probe on the steering core
	FnRxCacheDeliver             // cached decap + direct socket handoff
	NumFuncs
)

var funcNames = [NumFuncs]string{
	"pNIC_interrupt",
	"mlx5e_napi_poll",
	"skb_allocation",
	"napi_gro_receive",
	"netif_receive_skb",
	"get_rps_cpu",
	"ip_rcv",
	"udp_rcv",
	"tcp_v4_rcv",
	"vxlan_rcv",
	"gro_cell_poll",
	"br_handle_frame",
	"veth_xmit",
	"process_backlog",
	"socket_deliver",
	"copy_to_user",
	"app_work",
	"tx_stack",
	"vxlan_xmit",
	"tx_nic",
	"enqueue_to_backlog",
	"ipi_raise",
	"do_softirq",
	"rx_cache_lookup",
	"rx_cache_deliver",
}

// String returns the kernel-style symbol name.
func (f Func) String() string {
	if f < 0 || f >= NumFuncs {
		return "unknown"
	}
	return funcNames[f]
}
