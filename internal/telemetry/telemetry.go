// Package telemetry puts the MARS telemetry encoding on a measured
// frontier. The paper argues for a fixed 11-byte header against per-hop
// growing INT stacks (§4.2, Fig. 2); PINT (Ben Basat et al., SIGCOMM
// 2020) shows the space between those extremes — probabilistic per-hop
// sampling into a fixed-width slot, summarized from many packets at the
// controller. The paper's encoding is dataplane.Mars11, with its
// dataplane.TelemetryHeaderBytes; every other codec embeds it and
// declares only what it changes:
//
//   - mars11: dataplane.Mars11 itself (the default).
//   - perhop: classic INT — one 8-byte entry charged per hop, the
//     expensive upper baseline whose cost grows with path length.
//   - pintlike: the 11-byte base plus a 5-byte probabilistic hop slot;
//     each hop reservoir-samples itself into the slot with seeded
//     hashing, and the analyzer scores each (flow, path) by the share
//     of its hops the slots observed.
//   - sampled: the paper's header promoted only every Nth epoch,
//     trading temporal coverage for bytes.
//
// A codec is one dataplane.Codec value, which mars.NewSystem hands to
// the switch program and the analyzer alike. Headers travel as Go
// values; each codec's byte cost is its declared widths, and the
// `mars-bench -exp overhead` sweep measures the resulting cost–accuracy
// frontier over the Table 1 fault suite.
package telemetry

import (
	"fmt"
	"strings"

	"mars/internal/dataplane"
)

// New builds the named codec. seed feeds codec-internal hashing (only
// pintlike uses it); codecs are deterministic functions of (seed, packet
// contents). The error lists the valid names so CLI surfaces can echo it
// directly.
func New(name string, seed int64) (dataplane.Codec, error) {
	switch name {
	case "mars11":
		return dataplane.Mars11{}, nil
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
