package netsim

import (
	"fmt"

	"mars/internal/topology"
)

// FlowKey identifies an end-to-end flow for ECMP hashing and per-flow
// statistics. In a real network this is a 5-tuple hash; the generator
// assigns each flow a distinct key.
type FlowKey uint64

// Packet is one unit of traffic. The simulator owns routing and queueing;
// the active Hooks implementation may attach protocol metadata via Meta
// and grow the wire size via ExtraBytes (e.g. INT headers).
type Packet struct {
	// ID is unique per simulation run, in send order.
	ID uint64
	// Src and Dst are host node IDs.
	Src, Dst topology.NodeID
	// Flow is the ECMP/flow identity.
	Flow FlowKey
	// Size is the original wire size in bytes (headers + payload).
	Size int32
	// ExtraBytes is telemetry overhead added by the pipeline; it counts
	// toward serialization time and link utilization.
	ExtraBytes int32
	// SendTime is when the source host emitted the packet.
	SendTime Time
	// Meta is pipeline-owned metadata (e.g. the MARS INT header).
	Meta any

	// TruePath is the switch sequence traversed so far: ground truth the
	// simulator records so tests can validate routing against it.
	TruePath []topology.NodeID
}

// WireSize returns the bytes this packet occupies on a link.
func (p *Packet) WireSize() int32 { return p.Size + p.ExtraBytes }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt%d flow=%d %d->%d %dB", p.ID, p.Flow, p.Src, p.Dst, p.WireSize())
}

// DropReason explains why the simulator dropped a packet.
type DropReason uint8

const (
	// DropQueueFull is a tail drop at a full egress queue.
	DropQueueFull DropReason = iota
	// DropFault is an injected loss (link failure, blackhole, random loss).
	DropFault
	// DropNoRoute means the routing function returned no egress port.
	DropNoRoute
	// DropByProgram means the active Hooks requested the drop.
	DropByProgram
	// DropLinkDown means the egress link was down (link failure or flap).
	DropLinkDown
	// DropSwitchDown means the packet arrived at a rebooting switch.
	DropSwitchDown
)

func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropFault:
		return "fault"
	case DropNoRoute:
		return "no-route"
	case DropByProgram:
		return "by-program"
	case DropLinkDown:
		return "link-down"
	case DropSwitchDown:
		return "switch-down"
	default:
		return fmt.Sprintf("DropReason(%d)", uint8(r))
	}
}
