package telemetry

import "mars/internal/dataplane"

// PerhopHopBytes is one classic-INT stack entry: switch ID (2 B), egress
// queue depth (2 B), time since source entry in µs (4 B).
const PerhopHopBytes = 8

// perhopCodec is classic INT, the paper's expensive upper baseline: the
// mars11 base header plus one PerhopHopBytes entry charged at every
// traversed switch, so wire cost grows linearly with path length (Fig. 2's
// motivating comparison). Only the charged width of the stack is
// modeled: the base accumulator is the only state carried, so detection
// and RCA read mars11's signals while bytes/packet strictly dominate it,
// and the sink stores the paper's fields, so collection costs
// dataplane.RTRecordBytes per record as for every codec. perhop pays its
// premium in-band.
type perhopCodec struct{ dataplane.Mars11 }

func (perhopCodec) HopBytes() int { return PerhopHopBytes }
