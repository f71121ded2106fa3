package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
)

func TestNamesSortedAndComplete(t *testing.T) {
	want := []string{"mars11", "perhop", "pintlike", "sampled"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestNewUnknownListsValid(t *testing.T) {
	_, err := New("morse", 1)
	if err == nil {
		t.Fatal("New of an unknown codec must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"morse"`) || !strings.Contains(msg, "valid:") {
		t.Errorf("error %q must echo the bad name and list valid codecs", msg)
	}
	for _, name := range Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list %q", msg, name)
		}
	}
}

// TestDeclaredWidths pins every codec's declared widths, and the
// collection widths, by name: the byte accounting charges these
// constants, and no encoder checks them against a layout. A collected
// record costs dataplane.RTRecordBytes under every codec.
func TestDeclaredWidths(t *testing.T) {
	for _, tc := range []struct {
		name      string
		wire, hop int
	}{
		{"mars11", 11, 0},
		{"sampled", 11, 0},
		{"perhop", 11, 8},
		{"pintlike", 16, 0},
	} {
		c, err := New(tc.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.WireBytes(); got != tc.wire {
			t.Errorf("%s: WireBytes() = %d, want %d", tc.name, got, tc.wire)
		}
		if got := c.HopBytes(); got != tc.hop {
			t.Errorf("%s: HopBytes() = %d, want %d", tc.name, got, tc.hop)
		}
	}
	if dataplane.NotificationBytes != 24 {
		t.Errorf("NotificationBytes = %d, want 24", dataplane.NotificationBytes)
	}
	if dataplane.RTRecordBytes != 28 {
		t.Errorf("RTRecordBytes = %d, want 28", dataplane.RTRecordBytes)
	}
}

// TestSampledStride: the sampled codec declares its stride (the program
// promotes on it; dataplane.TestDropDetectionEpochGap runs it) and hands
// RCA 1/stride confidence whatever the snapshot holds, leaving it as it was.
func TestSampledStride(t *testing.T) {
	c, err := New("sampled", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.EpochStride(); got != DefaultSampledStride {
		t.Fatalf("EpochStride() = %d, want %d", got, DefaultSampledStride)
	}
	flow := dataplane.FlowID{Src: 1, Sink: 2}
	for _, recs := range [][]dataplane.RTRecord{
		nil,
		make([]dataplane.RTRecord, 3),
		{{Flow: flow, PathID: 9, Epoch: 4, SlotIndex: 1, SlotHops: 4}, {Flow: flow, PathID: 9, Epoch: 6}},
	} {
		in := slices.Clone(recs)
		if got := c.Confidence(recs); got != 1.0/DefaultSampledStride {
			t.Errorf("Confidence of %d records = %v, want %v", len(recs), got, 1.0/DefaultSampledStride)
		}
		if !slices.Equal(recs, in) {
			t.Errorf("Confidence changed the records: %+v, want %+v", recs, in)
		}
	}
}

// TestExactCodecsConfidence: mars11 and perhop carry every hop's signal
// exactly, so their confidence is 1 for any snapshot.
func TestExactCodecsConfidence(t *testing.T) {
	for _, name := range []string{"mars11", "perhop"} {
		c, err := New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, recs := range [][]dataplane.RTRecord{nil, {{SlotIndex: 1, SlotHops: 4}, {}}} {
			if got := c.Confidence(recs); got != 1 {
				t.Errorf("%s: Confidence of %d records = %v, want 1", name, len(recs), got)
			}
		}
	}
}

// TestPintlikeDeterministicSampling: the slot decision is a pure function
// of (seed, packet ID, hop index) — two walks of the same packet agree,
// and hop 1 always seeds the slot.
func TestPintlikeDeterministicSampling(t *testing.T) {
	walk := func(seed int64, pktID uint64) dataplane.INTHeader {
		c, err := New("pintlike", seed)
		if err != nil {
			t.Fatal(err)
		}
		h := &dataplane.INTHeader{}
		for i := 1; i <= 5; i++ {
			c.OnHop(h, pktID)
		}
		return *h
	}
	if a, b := walk(7, 99), walk(7, 99); a != b {
		t.Errorf("same (seed, packet) sampled differently: %+v vs %+v", a, b)
	}
	if h := walk(7, 99); h.SlotHops != 5 || h.SlotIndex == 0 || h.SlotIndex > 5 {
		t.Errorf("slot after 5 hops out of range: %+v", h)
	}
	// A different seed must be able to pick a different hop for at least
	// one packet — the hash actually depends on the seed.
	varies := false
	for pkt := uint64(0); pkt < 32 && !varies; pkt++ {
		varies = walk(1, pkt).SlotIndex != walk(2, pkt).SlotIndex
	}
	if !varies {
		t.Error("slot choice ignores the codec seed")
	}
}

// TestPintlikeDecodeCoverage: records of one (flow, path) share the
// coverage observedHops/pathLen, slotless records cover 0, the confidence
// is their mean (1 for no records), and the records are left unchanged.
func TestPintlikeDecodeCoverage(t *testing.T) {
	c, err := New("pintlike", 1)
	if err != nil {
		t.Fatal(err)
	}
	flow := dataplane.FlowID{Src: 1, Sink: 2}
	recs := []dataplane.RTRecord{
		{Flow: flow, PathID: 9, SlotIndex: 1, SlotHops: 4},
		{Flow: flow, PathID: 9, SlotIndex: 1, SlotHops: 4},
		{Flow: flow, PathID: 9, SlotIndex: 3, SlotHops: 4},
		{Flow: flow, PathID: 9}, // slot never reached the sink
	}
	in := slices.Clone(recs)
	if got, want := c.Confidence(recs), (0.5+0.5+0.5+0)/4; got != want {
		t.Errorf("Confidence = %v, want %v", got, want)
	}
	if !slices.Equal(recs, in) {
		t.Errorf("records after Confidence = %+v, want them unchanged", recs)
	}
	if got := c.Confidence(nil); got != 1 {
		t.Errorf("Confidence of no records = %v, want 1", got)
	}
}

// refPintlikeConfidence is a per-record, profile-based reference for
// pintlike's coverage: records are grouped by (flow, path), each group's
// slots merged into a per-hop profile sorted by hop index, and a record's
// confidence is the profile's observed hops over the longest path length
// the group's slots reported.
func refPintlikeConfidence(recs []dataplane.RTRecord) []float64 {
	type groupKey struct {
		flow dataplane.FlowID
		path uint64
	}
	type profile struct {
		hops    []uint8
		pathLen int
	}
	groups := make(map[groupKey]map[uint8]int)
	pathLen := make(map[groupKey]int)
	for i := range recs {
		r := &recs[i]
		if r.SlotIndex == 0 {
			continue
		}
		k := groupKey{flow: r.Flow, path: uint64(r.PathID)}
		g := groups[k]
		if g == nil {
			g = make(map[uint8]int)
			groups[k] = g
		}
		g[r.SlotIndex]++
		if int(r.SlotHops) > pathLen[k] {
			pathLen[k] = int(r.SlotHops)
		}
	}
	conf := make([]float64, len(recs))
	profiles := make(map[groupKey]*profile)
	for i := range recs {
		r := &recs[i]
		if r.SlotIndex == 0 {
			continue
		}
		k := groupKey{flow: r.Flow, path: uint64(r.PathID)}
		p := profiles[k]
		if p == nil {
			p = &profile{pathLen: pathLen[k]}
			for idx := range groups[k] {
				//mars:mapiter-ok keys are sorted before use
				p.hops = append(p.hops, idx)
			}
			slices.Sort(p.hops)
			profiles[k] = p
		}
		if p.pathLen > 0 {
			conf[i] = float64(len(p.hops)) / float64(p.pathLen)
		}
	}
	return conf
}

// TestPintlikeDecodeMatchesProfileReference: over seeded random record sets
// — several flows and paths, empty slots, saturated hop counts, indices
// past the reported hop count — Confidence is bit-equal to the in-order
// mean of the profile-based reference's per-record confidences (1 for an
// empty set), and the records are left unchanged.
func TestPintlikeDecodeMatchesProfileReference(t *testing.T) {
	c, err := New("pintlike", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	for set := 0; set < 200; set++ {
		recs := make([]dataplane.RTRecord, rng.Intn(120))
		for i := range recs {
			r := &recs[i]
			r.Flow = dataplane.FlowID{Src: topology.NodeID(rng.Intn(3)), Sink: topology.NodeID(3 + rng.Intn(2))}
			r.PathID = pathid.ID(rng.Intn(3))
			r.Epoch = uint32(i)
			switch rng.Intn(8) {
			case 0: // the slot never reached the sink
			case 1: // a saturated hop count
				r.SlotHops = 0xFF
				r.SlotIndex = uint8(1 + rng.Intn(0xFF))
			case 2: // any byte pair, consistent or not
				r.SlotHops = uint8(rng.Intn(256))
				r.SlotIndex = uint8(rng.Intn(256))
			default:
				r.SlotHops = uint8(1 + rng.Intn(7))
				r.SlotIndex = uint8(1 + rng.Intn(int(r.SlotHops)))
			}
		}
		in := slices.Clone(recs)
		got := c.Confidence(recs)
		if !slices.Equal(recs, in) {
			t.Fatalf("set %d: Confidence changed the records", set)
		}
		want := 1.0
		if ref := refPintlikeConfidence(in); len(ref) > 0 {
			var sum float64
			for _, v := range ref {
				sum += v
			}
			want = sum / float64(len(ref))
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("set %d (%d records): Confidence %v, reference mean %v", set, len(in), got, want)
		}
	}
}

// TestPerhopStack: perhop's only per-hop cost is its declared stack entry,
// which the program charges; OnHop carries no state beyond the paper's
// accumulator, which the program folds.
func TestPerhopStack(t *testing.T) {
	c, err := New("perhop", 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.HopBytes() != PerhopHopBytes {
		t.Fatalf("HopBytes() = %d, want %d", c.HopBytes(), PerhopHopBytes)
	}
	h := &dataplane.INTHeader{SourceTS: netsim.Second, TotalQueueDepth: 6}
	before := *h
	for i := 1; i <= 3; i++ {
		c.OnHop(h, 1)
	}
	if *h != before {
		t.Errorf("header after 3 hops = %+v, want %+v untouched", *h, before)
	}
}
