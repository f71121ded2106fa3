package telemetry

import (
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// PerhopHopBytes is one classic-INT stack entry: switch ID (2 B), egress
// queue depth (2 B), time since source entry in µs (4 B).
const PerhopHopBytes = 8

// perhopCodec is classic INT, the paper's expensive upper baseline: the
// mars11 base header plus one PerhopHopBytes entry appended at every
// traversed switch, so wire cost grows linearly with path length (Fig. 2's
// motivating comparison). Only the charged width of the stack is
// modeled: the base accumulator is the only state carried, so detection
// and RCA read mars11's signals while bytes/packet strictly dominate it,
// and the sink stores the paper's fields, so collection cost
// (RecordBytes) is the paper's too. perhop pays its premium in-band.
type perhopCodec struct{ paper }

func (perhopCodec) HopBytes() int { return PerhopHopBytes }

func (c perhopCodec) OnHop(h *dataplane.INTHeader, pktID uint64, sw topology.NodeID, qlen int, now netsim.Time) int {
	c.paper.OnHop(h, pktID, sw, qlen, now)
	return PerhopHopBytes
}
