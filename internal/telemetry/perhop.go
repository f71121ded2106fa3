package telemetry

import (
	"fmt"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// Hop is one classic-INT stack entry recorded by the perhop codec.
type Hop struct {
	Switch topology.NodeID
	// Queue is the egress queue depth observed at the hop.
	Queue uint32
	// SinceSourceUS is the time since the packet entered the source
	// switch, in microseconds.
	SinceSourceUS uint32
}

// HopStack is the perhop codec's Ext payload: the full per-hop trace.
type HopStack struct {
	Hops []Hop
}

// perhopCodec is classic INT, the paper's expensive upper baseline: the
// mars11 base header plus one 8-byte record appended at every traversed
// switch, so wire cost grows linearly with path length (Fig. 2's
// motivating comparison). Detection signals are a superset of mars11's —
// the base accumulator is still maintained — so localization accuracy
// matches mars11 while bytes/packet strictly dominate it. The sink stores
// the aggregate fields, not the raw stack, so collection cost
// (RecordBytes) is the paper's too: perhop pays its premium in-band.
type perhopCodec struct{ paper }

func (perhopCodec) HopBytes() int { return PerhopHopBytes }

func (c perhopCodec) OnHop(h *dataplane.INTHeader, pktID uint64, sw topology.NodeID, qlen int, now netsim.Time) int {
	c.paper.OnHop(h, pktID, sw, qlen, now)
	st, _ := h.Ext.(*HopStack)
	if st == nil {
		st = &HopStack{}
		h.Ext = st
	}
	st.Hops = append(st.Hops, Hop{
		Switch:        sw,
		Queue:         uint32(qlen),
		SinceSourceUS: uint32((now - h.SourceTS) / netsim.Microsecond),
	})
	return PerhopHopBytes
}

func (perhopCodec) SinkRecord(h *dataplane.INTHeader) any {
	if st, ok := h.Ext.(*HopStack); ok {
		return st
	}
	return nil
}

// Marshal is the paper's header followed by one PerhopHopBytes entry per
// recorded hop.
func (c perhopCodec) Marshal(h *dataplane.INTHeader) []byte {
	out := c.paper.Marshal(h)
	if st, ok := h.Ext.(*HopStack); ok {
		for i := range st.Hops {
			hb := MarshalPerhopHop(&st.Hops[i])
			out = append(out, hb[:]...)
		}
	}
	return out
}

func (c perhopCodec) Unmarshal(b []byte, now netsim.Time, epochHint uint32) (*dataplane.INTHeader, error) {
	const base = dataplane.TelemetryHeaderBytes
	if len(b) < base || (len(b)-base)%PerhopHopBytes != 0 {
		return nil, fmt.Errorf("telemetry: perhop wire form is %d bytes, want %d plus a multiple of %d", len(b), base, PerhopHopBytes)
	}
	h := dataplane.UnmarshalINT([base]byte(b), now, epochHint)
	if rest := b[base:]; len(rest) > 0 {
		st := &HopStack{Hops: make([]Hop, 0, len(rest)/PerhopHopBytes)}
		for ; len(rest) > 0; rest = rest[PerhopHopBytes:] {
			st.Hops = append(st.Hops, UnmarshalPerhopHop([PerhopHopBytes]byte(rest)))
		}
		h.Ext = st
	}
	return h, nil
}
