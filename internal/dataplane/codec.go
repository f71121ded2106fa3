package dataplane

// Codec is a telemetry encoding, the one seam between the paper's fixed
// 11-byte design and the other points of the cost–accuracy frontier. The
// switch program reads its widths and stride once, promotes a flow's
// marked packet when the epoch is a multiple of EpochStride, folds each
// hop's queue depth into the header itself, charges HopBytes per hop and
// lets OnHop update the codec's slot. The analyzer (rca.Config.Codec)
// scales a diagnosis's culprit confidence by the snapshot's Confidence.
// The paper's answers are Mars11 below, which a nil Config.Codec resolves
// to; internal/telemetry's codecs embed it and declare only what they
// change.
//
// The widths a codec declares are what the byte accounting charges; no
// codec serializes its header (see the constants in header.go), and
// telemetry.TestDeclaredWidths pins every codec's widths by name.
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
	// OnHop updates the in-flight header's slot at one switch, after the
	// program has folded the hop's queue depth.
	OnHop(h *INTHeader, pktID uint64)
	// Confidence is the mean reconstruction confidence in [0,1] of a
	// collected Ring Table snapshot, which it does not modify: 1 for exact
	// encodings, the mean observed-hop coverage for pintlike, 1/stride for
	// sampled.
	Confidence(recs []RTRecord) float64
}

// Mars11 is the paper's fixed 11-byte encoding: every epoch mark is
// promoted, nothing grows, nothing is carried beyond the base header, and
// the controller reads records as they are. It lives here rather than in
// internal/telemetry so the import direction stays telemetry → dataplane.
type Mars11 struct{}

func (Mars11) WireBytes() int      { return TelemetryHeaderBytes }
func (Mars11) HopBytes() int       { return 0 }
func (Mars11) EpochStride() uint32 { return 1 }

func (Mars11) OnHop(*INTHeader, uint64) {}

// Confidence is 1: the encoding is exact.
func (Mars11) Confidence([]RTRecord) float64 { return 1 }

var _ Codec = Mars11{}
