package telemetry

import "mars/internal/dataplane"

// DefaultSampledStride is the "sampled" codec's promotion period: one
// telemetry packet every 2 epochs, halving in-band cost.
const DefaultSampledStride = 2

// sampledCodec is epoch-subsampled mars11: the paper's 11 bytes, but a
// flow's marked packet is promoted only when the epoch is a multiple of
// the stride. Bytes drop by ~1/stride; detection and reconstruction see
// only every Nth epoch, so temporal coverage (and the reconstruction
// confidence handed to RCA) drops with it. The stride is configuration,
// like the epoch length: the sink reads it from EpochStride, never off
// the wire.
type sampledCodec struct {
	paper
	stride uint32
}

func (c sampledCodec) EpochStride() uint32 { return c.stride }

func (c sampledCodec) Promote(_ dataplane.FlowID, epoch uint32) bool {
	return epoch%c.stride == 0
}

// DecodeRecords passes records through exactly but reports 1/stride
// confidence: each record is precise, yet it stands in for stride epochs
// of unobserved behavior.
func (c sampledCodec) DecodeRecords(recs []dataplane.RTRecord) ([]dataplane.RTRecord, []float64) {
	conf := make([]float64, len(recs))
	for i := range conf {
		conf[i] = 1 / float64(c.stride)
	}
	return recs, conf
}
