package telemetry

import (
	"sort"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// HopSample is the pintlike codec's fixed-width slot: one hop's
// observation, chosen by per-packet reservoir sampling so that across
// many packets of a flow every hop is observed with equal probability.
type HopSample struct {
	Switch topology.NodeID
	// Depth is the quantized egress queue depth at the sampled hop.
	Depth uint32
	// Index is the 1-based hop position of the sample; 0 means empty.
	Index uint8
	// Count is how many hops the packet had traversed by the sink, i.e.
	// the path length the reconstruction normalizes coverage against.
	Count uint8
}

// PathProfile is the controller-side reconstruction attached to decoded
// records: per-hop mean queue depths assembled from the slots of every
// record sharing the (flow, path).
type PathProfile struct {
	// Hops is sorted by hop index; only observed hops appear.
	Hops []HopDepth
	// PathLen is the hop count reported by the samples.
	PathLen int
}

// HopDepth is one reconstructed hop: its position, the switch observed
// there, and the mean sampled depth.
type HopDepth struct {
	Index  uint8
	Switch topology.NodeID
	Depth  float64
}

// pintlikeCodec approximates PINT's value mode: the 11-byte base header
// stays exact (so latency/drop detection is unchanged from mars11), and a
// 5-byte slot carries one probabilistically chosen hop observation in
// place of perhop's whole stack. Hop k of a packet overwrites the slot
// with probability 1/k — classic reservoir sampling driven by a seeded
// hash of (packet ID, hop index), deterministic for a fixed seed. The
// controller groups collected records by (flow, path) and rebuilds the
// per-hop queue profile across packets; confidence is the fraction of the
// path the group actually observed.
type pintlikeCodec struct {
	paper
	seed uint64
}

func (pintlikeCodec) WireBytes() int { return PintlikeWireBytes }

func (c pintlikeCodec) OnHop(h *dataplane.INTHeader, pktID uint64, sw topology.NodeID, qlen int, now netsim.Time) int {
	c.paper.OnHop(h, pktID, sw, qlen, now)
	hs, _ := h.Ext.(*HopSample)
	if hs == nil {
		hs = &HopSample{}
		h.Ext = hs
	}
	if hs.Count < 0xFF {
		hs.Count++
	}
	k := uint64(hs.Count)
	if k == 1 || mix64(c.seed^pktID*0x9E3779B97F4A7C15^k*0xD1B54A32D192ED03)%k == 0 {
		hs.Switch = sw
		hs.Depth = uint32(qlen)
		hs.Index = hs.Count
	}
	return 0
}

func (pintlikeCodec) SinkRecord(h *dataplane.INTHeader) any {
	if hs, ok := h.Ext.(*HopSample); ok {
		s := *hs
		return &s
	}
	return nil
}

func (pintlikeCodec) Marshal(h *dataplane.INTHeader) []byte {
	b := MarshalPintlike(h)
	return b[:]
}

func (pintlikeCodec) Unmarshal(b []byte, now netsim.Time, epochHint uint32) (*dataplane.INTHeader, error) {
	if err := wireLen(b, PintlikeWireBytes); err != nil {
		return nil, err
	}
	return UnmarshalPintlike([PintlikeWireBytes]byte(b), now, epochHint), nil
}

// DecodeRecords reconstructs per-hop queue profiles: records are grouped
// by (flow, path), their slots merged into mean depths per hop index, and
// each record's confidence is the group's observed-hop coverage of the
// path. The exact base fields pass through untouched, so RCA sees the
// same signatures as mars11, annotated with how much of the path the
// probabilistic slots actually illuminated.
func (c pintlikeCodec) DecodeRecords(recs []dataplane.RTRecord) ([]dataplane.RTRecord, []float64) {
	type groupKey struct {
		flow dataplane.FlowID
		path uint64
	}
	type hopAgg struct {
		sw    topology.NodeID
		sum   float64
		n     int
		index uint8
	}
	groups := make(map[groupKey]map[uint8]*hopAgg)
	pathLen := make(map[groupKey]int)
	for i := range recs {
		hs, ok := recs[i].Ext.(*HopSample)
		if !ok || hs.Index == 0 {
			continue
		}
		k := groupKey{flow: recs[i].Flow, path: uint64(recs[i].PathID)}
		g := groups[k]
		if g == nil {
			g = make(map[uint8]*hopAgg)
			groups[k] = g
		}
		a := g[hs.Index]
		if a == nil {
			a = &hopAgg{sw: hs.Switch, index: hs.Index}
			g[hs.Index] = a
		}
		a.sum += float64(hs.Depth)
		a.n++
		if int(hs.Count) > pathLen[k] {
			pathLen[k] = int(hs.Count)
		}
	}
	out := make([]dataplane.RTRecord, len(recs))
	copy(out, recs)
	conf := make([]float64, len(recs))
	profiles := make(map[groupKey]*PathProfile)
	for i := range out {
		hs, ok := out[i].Ext.(*HopSample)
		if !ok || hs.Index == 0 {
			// No slot reached the sink for this record; the exact base
			// fields still hold, but the probabilistic layer saw nothing.
			conf[i] = 0
			continue
		}
		k := groupKey{flow: out[i].Flow, path: uint64(out[i].PathID)}
		p := profiles[k]
		if p == nil {
			g := groups[k]
			p = &PathProfile{PathLen: pathLen[k]}
			idxs := make([]int, 0, len(g))
			for idx := range g {
				//mars:mapiter-ok keys are sorted before use
				idxs = append(idxs, int(idx))
			}
			sort.Ints(idxs)
			for _, idx := range idxs {
				a := g[uint8(idx)]
				p.Hops = append(p.Hops, HopDepth{Index: a.index, Switch: a.sw, Depth: a.sum / float64(a.n)})
			}
			profiles[k] = p
		}
		out[i].Ext = p
		if p.PathLen > 0 {
			conf[i] = float64(len(p.Hops)) / float64(p.PathLen)
		}
	}
	return out, conf
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
