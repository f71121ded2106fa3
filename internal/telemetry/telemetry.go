// Package telemetry puts the MARS telemetry encoding on a measured
// frontier. The paper argues for a fixed 11-byte header against per-hop
// growing INT stacks (§4.2, Fig. 2); PINT (Ben Basat et al., SIGCOMM
// 2020) shows the space between those extremes — probabilistic per-hop
// sampling into a fixed-width slot, reconstructed from many packets at
// the sink. The paper's encoding is one value, paper, built on
// dataplane.Mars11 and its dataplane.TelemetryHeaderBytes; every other
// codec embeds it and declares only what it changes:
//
//   - mars11: paper itself (the default).
//   - perhop: classic INT — one 8-byte entry charged per hop, the
//     expensive upper baseline whose cost grows with path length.
//   - pintlike: the 11-byte base plus a 5-byte probabilistic hop slot;
//     each hop reservoir-samples itself into the slot with seeded
//     hashing, and the controller reconstructs per-hop queue profiles
//     across packets with a coverage confidence.
//   - sampled: the paper's header promoted only every Nth epoch,
//     trading temporal coverage for bytes.
//
// A Codec is both the data-plane program hooks (dataplane.Codec) and the
// controller-side record decoder, so one value threads through
// mars.Config into both halves of the system. Headers travel as Go
// values; each codec's byte cost is its declared widths, and the
// `mars-bench -exp overhead` sweep measures the resulting cost–accuracy
// frontier over the Table 1 fault suite.
package telemetry

import (
	"fmt"
	"strings"

	"mars/internal/dataplane"
)

// Codec is a full telemetry encoding: the data-plane hooks plus the
// controller-side decoder.
type Codec interface {
	dataplane.Codec

	// DecodeRecords reconstructs a collected Ring Table snapshot on the
	// controller. It returns the (possibly rewritten) records and a
	// per-record reconstruction confidence in [0,1]: nil (1 everywhere)
	// for exact encodings, the observed-hop coverage for pintlike,
	// 1/stride for sampled.
	DecodeRecords(recs []dataplane.RTRecord) ([]dataplane.RTRecord, []float64)
	// RecordBytes is the declared width charged per record during
	// on-demand collection: dataplane.RTRecordBytes for every codec here,
	// since sinks store the paper's fields whatever travelled in-band.
	RecordBytes() int
}

// paper is the paper's encoding, once: dataplane.Mars11's switch
// behavior plus the exact controller half. It is the "mars11" codec, and
// the base every other codec embeds.
type paper struct{ dataplane.Mars11 }

// DecodeRecords is the identity: the encoding is exact, and a nil
// confidence means 1 everywhere.
func (paper) DecodeRecords(recs []dataplane.RTRecord) ([]dataplane.RTRecord, []float64) {
	return recs, nil
}

func (paper) RecordBytes() int { return dataplane.RTRecordBytes }

// New builds the named codec. seed feeds codec-internal hashing (only
// pintlike uses it); codecs are deterministic functions of (seed, packet
// contents). The error lists the valid names so CLI surfaces can echo it
// directly.
func New(name string, seed int64) (Codec, error) {
	switch name {
	case "mars11":
		return paper{}, nil
	case "perhop":
		return perhopCodec{}, nil
	case "pintlike":
		return pintlikeCodec{seed: uint64(seed)}, nil
	case "sampled":
		return sampledCodec{stride: DefaultSampledStride}, nil
	}
	return nil, fmt.Errorf("telemetry: unknown codec %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// Names returns the codec names in sorted order.
func Names() []string { return []string{"mars11", "perhop", "pintlike", "sampled"} }
