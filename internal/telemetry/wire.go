package telemetry

import (
	"encoding/binary"
	"fmt"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// Wire forms. mars11, sampled and the perhop base header travel as
// dataplane.MarshalINT's 11 bytes; the two layouts stated here are the
// ones that extend it. Like dataplane/wire.go, each is a
// Marshal<X>/Unmarshal<X> pair over an [N]byte array, and N is the codec's
// declared WireBytes() (or HopBytes() for the per-hop entry). pintlike
// restates the base fields instead of copying MarshalINT's bytes into
// place, so its whole layout reads in one function. FuzzPintlikeRoundTrip
// and FuzzPerhopRoundTrip check that each pair is symmetric, and
// TestMarshalLenMatchesDeclared that every codec's Marshal length is its
// declared width.

// Declared wire sizes.
const (
	// PintlikeWireBytes is the paper's 11 bytes plus the 5-byte sampled
	// hop slot (switch 2, quantized depth 1, hop index 1, hop count 1).
	PintlikeWireBytes = 16
	// PerhopHopBytes is one per-hop INT stack entry (switch 2, queue 2,
	// time since source 4).
	PerhopHopBytes = 8
)

// MarshalPintlike encodes the mars11 base plus the probabilistic hop
// slot:
//
//	0:10  the paper's base fields (see dataplane.MarshalINT)
//	10    flags (bit 0: anomaly-flagged)
//	11:13 slot switch ID (saturating uint16)
//	13    slot queue depth, quantized (saturating uint8)
//	14    slot hop index (1-based; 0 = empty slot)
//	15    hops traversed so far
func MarshalPintlike(h *dataplane.INTHeader) [PintlikeWireBytes]byte {
	var b [PintlikeWireBytes]byte
	binary.BigEndian.PutUint32(b[0:4], dataplane.CompressTimestamp(h.SourceTS))
	binary.BigEndian.PutUint16(b[4:6], sat16(h.LastEpochCount))
	binary.BigEndian.PutUint16(b[6:8], sat16(h.TotalQueueDepth))
	binary.BigEndian.PutUint16(b[8:10], uint16(h.EpochID))
	if h.Flagged {
		b[10] = 1
	}
	var hs HopSample
	if s, ok := h.Ext.(*HopSample); ok && s != nil {
		hs = *s
	}
	binary.BigEndian.PutUint16(b[11:13], sat16(uint32(hs.Switch)))
	b[13] = sat8(hs.Depth)
	b[14] = hs.Index
	b[15] = hs.Count
	return b
}

// UnmarshalPintlike decodes the 16-byte pintlike form. An empty slot
// (index 0) yields a nil Ext.
func UnmarshalPintlike(b [PintlikeWireBytes]byte, now netsim.Time, epochHint uint32) *dataplane.INTHeader {
	h := &dataplane.INTHeader{
		SourceTS:        dataplane.DecompressTimestamp(binary.BigEndian.Uint32(b[0:4]), now),
		LastEpochCount:  uint32(binary.BigEndian.Uint16(b[4:6])),
		TotalQueueDepth: uint32(binary.BigEndian.Uint16(b[6:8])),
		EpochID:         dataplane.ExpandEpoch(binary.BigEndian.Uint16(b[8:10]), epochHint),
		Flagged:         b[10]&1 != 0,
	}
	if b[14] != 0 {
		h.Ext = &HopSample{
			Switch: topology.NodeID(binary.BigEndian.Uint16(b[11:13])),
			Depth:  uint32(b[13]),
			Index:  b[14],
			Count:  b[15],
		}
	}
	return h
}

// MarshalPerhopHop encodes one INT stack entry:
//
//	0:2 switch ID (saturating uint16)
//	2:4 egress queue depth (saturating uint16)
//	4:8 time since source entry (µs)
func MarshalPerhopHop(hp *Hop) [PerhopHopBytes]byte {
	var b [PerhopHopBytes]byte
	binary.BigEndian.PutUint16(b[0:2], sat16(uint32(hp.Switch)))
	binary.BigEndian.PutUint16(b[2:4], sat16(hp.Queue))
	binary.BigEndian.PutUint32(b[4:8], hp.SinceSourceUS)
	return b
}

// UnmarshalPerhopHop decodes one INT stack entry.
func UnmarshalPerhopHop(b [PerhopHopBytes]byte) Hop {
	return Hop{
		Switch:        topology.NodeID(binary.BigEndian.Uint16(b[0:2])),
		Queue:         uint32(binary.BigEndian.Uint16(b[2:4])),
		SinceSourceUS: binary.BigEndian.Uint32(b[4:8]),
	}
}

// wireLen validates an exact expected length.
func wireLen(b []byte, want int) error {
	if len(b) != want {
		return fmt.Errorf("telemetry: wire form is %d bytes, want %d", len(b), want)
	}
	return nil
}

func sat16(v uint32) uint16 {
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v)
}

func sat8(v uint32) uint8 {
	if v > 0xFF {
		return 0xFF
	}
	return uint8(v)
}
