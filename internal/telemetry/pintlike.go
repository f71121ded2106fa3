package telemetry

import (
	"math/bits"

	"mars/internal/dataplane"
	"mars/internal/pathid"
)

// PintlikeWireBytes is the pintlike header: the paper's 11 bytes plus a
// 5-byte hop slot — slot switch ID (2 B), quantized queue depth (1 B),
// 1-based hop index, 0 for an empty slot (1 B), hops traversed so far
// (1 B). The charge is the whole modeled slot; the Go header carries only
// the two bytes the analyzer reads, INTHeader.SlotIndex and SlotHops.
const PintlikeWireBytes = 16

// pintlikeCodec approximates PINT's value mode: the 11-byte base header
// stays exact (so latency/drop detection is unchanged from mars11), and a
// 5-byte slot carries one probabilistically chosen hop in place of
// perhop's whole stack. Hop k of a packet overwrites the slot with
// probability 1/k — classic reservoir sampling driven by a seeded hash of
// (packet ID, hop index), deterministic for a fixed seed. The analyzer
// groups collected records by (flow, path); a record's coverage is the
// fraction of its path the group's slots observed.
type pintlikeCodec struct {
	dataplane.Mars11
	seed uint64
}

func (pintlikeCodec) WireBytes() int { return PintlikeWireBytes }

func (c pintlikeCodec) OnHop(h *dataplane.INTHeader, pktID uint64) {
	if h.SlotHops < 0xFF {
		h.SlotHops++
	}
	k := uint64(h.SlotHops)
	if k == 1 || mix64(c.seed^pktID*0x9E3779B97F4A7C15^k*0xD1B54A32D192ED03)%k == 0 {
		h.SlotIndex = h.SlotHops
	}
}

// slotCover is one (flow, path) group's slots: the hop indices observed,
// as a bit set, and the longest path length they reported.
type slotCover struct {
	seen [4]uint64
	hops uint8
}

// Confidence is the mean of the records' coverages. A record's coverage
// is its (flow, path) group's: the distinct hop indices the group's slots
// observed, divided by the largest hop count among them; a record whose
// slot never reached the sink (SlotIndex 0) covers 0. An empty snapshot is
// 1. The records are only read, so RCA sees the same signatures as mars11,
// weakened by how much of the paths the probabilistic slots illuminated.
func (pintlikeCodec) Confidence(recs []dataplane.RTRecord) float64 {
	if len(recs) == 0 {
		return 1
	}
	type groupKey struct {
		flow dataplane.FlowID
		path pathid.ID
	}
	covers := make(map[groupKey]slotCover)
	for i := range recs {
		r := &recs[i]
		if r.SlotIndex == 0 {
			continue
		}
		k := groupKey{r.Flow, r.PathID}
		c := covers[k]
		c.seen[r.SlotIndex/64] |= 1 << (r.SlotIndex % 64)
		c.hops = max(c.hops, r.SlotHops)
		covers[k] = c
	}
	var sum float64
	for i := range recs {
		r := &recs[i]
		if r.SlotIndex == 0 {
			continue
		}
		if c := covers[groupKey{r.Flow, r.PathID}]; c.hops > 0 {
			n := 0
			for _, w := range c.seen {
				n += bits.OnesCount64(w)
			}
			sum += float64(n) / float64(c.hops)
		}
	}
	return sum / float64(len(recs))
}

// mix64 is a splitmix64 finalizer: a stateless, seed-stable hash for the
// per-hop sampling decision (no shared RNG state, so packet processing
// order cannot perturb it).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
