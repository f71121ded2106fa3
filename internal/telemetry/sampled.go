package telemetry

import "mars/internal/dataplane"

// DefaultSampledStride is the "sampled" codec's promotion period: one
// telemetry packet every 2 epochs, halving in-band cost.
const DefaultSampledStride = 2

// sampledCodec is epoch-subsampled mars11: the paper's 11 bytes, but the
// program promotes a flow's marked packet only when the epoch is a
// multiple of the stride. Bytes drop by ~1/stride; detection and
// reconstruction see only every Nth epoch, so temporal coverage (and the
// reconstruction confidence handed to RCA) drops with it. The stride is
// configuration, like the epoch length: the program reads it from
// EpochStride, never off the wire.
type sampledCodec struct {
	dataplane.Mars11
	stride uint32
}

func (c sampledCodec) EpochStride() uint32 { return c.stride }

// Confidence is 1/stride: each record is precise, yet it stands in for
// stride epochs of unobserved behavior.
func (c sampledCodec) Confidence([]dataplane.RTRecord) float64 { return 1 / float64(c.stride) }
