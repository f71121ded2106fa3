package dataplane

import (
	"mars/internal/netsim"
	"mars/internal/topology"
)

// Codec is the data-plane half of a telemetry encoding. The switch program
// consults it at the three points where the paper's fixed 11-byte design
// is actually a free design choice: whether a marked packet is promoted to
// a telemetry packet (source), what the in-flight header accumulates and
// how many wire bytes it grows (per hop), and what reaches the sink's Ring
// Table record. The paper's answers are Mars11 below, which a nil
// Config.Codec resolves to; internal/telemetry's codecs embed it and
// declare only what they change.
//
// By convention, a type named <name>Codec that declares WireBytes() (or a
// non-zero HopBytes()) pairs with a Marshal<Name> (or Marshal<Name>Hop)
// wire function whose fixed array length is that width;
// telemetry.TestMarshalLenMatchesDeclared checks every codec's Marshal
// length against its declared widths.
type Codec interface {
	// WireBytes is the fixed header size added at the source switch.
	WireBytes() int
	// HopBytes is the per-hop wire growth (classic INT stacks); 0 for
	// fixed-width encodings.
	HopBytes() int
	// EpochStride is the promotion period in epochs: 1 promotes one
	// telemetry packet every epoch (the paper), N only every Nth epoch.
	// The sink's epoch-gap drop detection scales by it.
	EpochStride() uint32
	// Promote decides whether the flow's marked packet for this epoch
	// becomes a telemetry packet.
	Promote(flow FlowID, epoch uint32) bool
	// OnHop updates the in-flight header at one switch and returns the
	// wire bytes the header grew by at this hop.
	OnHop(h *INTHeader, pktID uint64, sw topology.NodeID, qlen int, now netsim.Time) int
	// SinkRecord returns the codec-private header state (from h.Ext) that
	// the sink stores as its Ring Table record's Ext; nil stores nothing.
	SinkRecord(h *INTHeader) any
}

// Mars11 is the paper's fixed 11-byte encoding: every epoch mark is
// promoted, each hop folds its queue depth into the accumulator, nothing
// grows, nothing is carried beyond the base header. It lives here rather
// than in internal/telemetry so the import direction stays
// telemetry → dataplane.
type Mars11 struct{}

func (Mars11) WireBytes() int      { return TelemetryHeaderBytes }
func (Mars11) HopBytes() int       { return 0 }
func (Mars11) EpochStride() uint32 { return 1 }

func (Mars11) Promote(FlowID, uint32) bool { return true }

func (Mars11) OnHop(h *INTHeader, _ uint64, _ topology.NodeID, qlen int, _ netsim.Time) int {
	h.TotalQueueDepth += uint32(qlen)
	return 0
}

func (Mars11) SinkRecord(*INTHeader) any { return nil }

var _ Codec = Mars11{}
