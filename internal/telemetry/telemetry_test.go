package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
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

// sampleHeaders exercises zero, mid-range, and saturating field values.
func sampleHeaders() []*dataplane.INTHeader {
	return []*dataplane.INTHeader{
		{},
		{SourceTS: 3 * netsim.Second, LastEpochCount: 40, TotalQueueDepth: 7, EpochID: 12, Flagged: true},
		{SourceTS: 5400 * netsim.Second, LastEpochCount: 0xFFFF, TotalQueueDepth: 0xFFFF, EpochID: 1 << 18},
	}
}

// TestSampledTravelsAsThePaperHeader: sampled changes when a header is
// sent, not what it looks like — its wire form is dataplane.MarshalINT's
// bytes (the stride is configuration, never on the wire) and only that
// length decodes.
func TestSampledTravelsAsThePaperHeader(t *testing.T) {
	c, err := New("sampled", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range sampleHeaders() {
		want := dataplane.MarshalINT(h)
		if got := c.Marshal(h); !bytes.Equal(got, want[:]) {
			t.Errorf("sampled Marshal(%+v) = %v, dataplane.MarshalINT = %v", h, got, want)
		}
	}
	for n := 0; n <= 2*dataplane.TelemetryHeaderBytes; n++ {
		_, err := c.Unmarshal(make([]byte, n), netsim.Second, 0)
		if ok := n == dataplane.TelemetryHeaderBytes; (err == nil) != ok {
			t.Errorf("Unmarshal of %d bytes: err = %v", n, err)
		}
	}
}

// TestMarshalLenMatchesDeclared checks every registered codec's Marshal
// length against its declared WireBytes/HopBytes, so a codec cannot
// promise one wire width to the simulator's byte accounting while its
// marshaller emits another.
func TestMarshalLenMatchesDeclared(t *testing.T) {
	for _, name := range Names() {
		c, err := New(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		h := &dataplane.INTHeader{SourceTS: netsim.Second, EpochID: 3}
		hops := 0
		for i := 1; i <= 4; i++ {
			if grow := c.OnHop(h, 7, topology.NodeID(i), i, netsim.Second+netsim.Time(i)*netsim.Millisecond); grow > 0 {
				hops++
			}
		}
		want := c.WireBytes() + hops*c.HopBytes()
		if got := len(c.Marshal(h)); got != want {
			t.Errorf("%s: Marshal produced %d bytes after 4 hops, want %d", name, got, want)
		}
		back, err := c.Unmarshal(c.Marshal(h), 2*netsim.Second, h.EpochID)
		if err != nil {
			t.Errorf("%s: Unmarshal of own Marshal failed: %v", name, err)
		} else if back.EpochID != h.EpochID {
			t.Errorf("%s: epoch %d round-tripped as %d", name, h.EpochID, back.EpochID)
		}
	}
}

func TestSampledStride(t *testing.T) {
	c, err := New("sampled", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.EpochStride(); got != DefaultSampledStride {
		t.Fatalf("EpochStride() = %d, want %d", got, DefaultSampledStride)
	}
	for epoch := uint32(0); epoch < 10; epoch++ {
		want := epoch%DefaultSampledStride == 0
		if got := c.Promote(dataplane.FlowID{}, epoch); got != want {
			t.Errorf("Promote(epoch=%d) = %v, want %v", epoch, got, want)
		}
	}
	recs := make([]dataplane.RTRecord, 3)
	_, conf := c.DecodeRecords(recs)
	for i, v := range conf {
		if v != 1.0/DefaultSampledStride {
			t.Errorf("conf[%d] = %v, want %v", i, v, 1.0/DefaultSampledStride)
		}
	}
}

// TestPintlikeDeterministicSampling: the slot decision is a pure function
// of (seed, packet ID, hop index) — two walks of the same packet agree,
// and hop 1 always seeds the slot.
func TestPintlikeDeterministicSampling(t *testing.T) {
	walk := func(seed int64, pktID uint64) HopSample {
		c, err := New("pintlike", seed)
		if err != nil {
			t.Fatal(err)
		}
		h := &dataplane.INTHeader{}
		for i := 1; i <= 5; i++ {
			c.OnHop(h, pktID, topology.NodeID(i), 10*i, netsim.Time(i)*netsim.Millisecond)
		}
		return *h.Ext.(*HopSample)
	}
	if a, b := walk(7, 99), walk(7, 99); a != b {
		t.Errorf("same (seed, packet) sampled differently: %+v vs %+v", a, b)
	}
	if s := walk(7, 99); s.Count != 5 || s.Index == 0 || s.Index > 5 {
		t.Errorf("slot after 5 hops out of range: %+v", s)
	}
	// A different seed must be able to pick a different hop for at least
	// one packet — the hash actually depends on the seed.
	varies := false
	for pkt := uint64(0); pkt < 32 && !varies; pkt++ {
		varies = walk(1, pkt).Index != walk(2, pkt).Index
	}
	if !varies {
		t.Error("slot choice ignores the codec seed")
	}
}

// TestPintlikeDecodeCoverage: records of one (flow, path) merge into a
// shared profile whose coverage is observedHops/pathLen; slotless records
// get confidence 0.
func TestPintlikeDecodeCoverage(t *testing.T) {
	c, err := New("pintlike", 1)
	if err != nil {
		t.Fatal(err)
	}
	flow := dataplane.FlowID{Src: 1, Sink: 2}
	recs := []dataplane.RTRecord{
		{Flow: flow, PathID: 9, Ext: &HopSample{Switch: 4, Depth: 10, Index: 1, Count: 4}},
		{Flow: flow, PathID: 9, Ext: &HopSample{Switch: 4, Depth: 30, Index: 1, Count: 4}},
		{Flow: flow, PathID: 9, Ext: &HopSample{Switch: 6, Depth: 8, Index: 3, Count: 4}},
		{Flow: flow, PathID: 9}, // slot never reached the sink
	}
	out, conf := c.DecodeRecords(recs)
	p, ok := out[0].Ext.(*PathProfile)
	if !ok {
		t.Fatalf("decoded record carries %T, want *PathProfile", out[0].Ext)
	}
	if p.PathLen != 4 || len(p.Hops) != 2 {
		t.Fatalf("profile = %+v, want PathLen 4 with 2 observed hops", p)
	}
	if p.Hops[0].Index != 1 || p.Hops[0].Depth != 20 {
		t.Errorf("hop 1 = %+v, want mean depth 20", p.Hops[0])
	}
	if p.Hops[1].Index != 3 || p.Hops[1].Switch != 6 {
		t.Errorf("hop 3 = %+v, want switch 6", p.Hops[1])
	}
	want := []float64{0.5, 0.5, 0.5, 0}
	if !reflect.DeepEqual(conf, want) {
		t.Errorf("conf = %v, want %v", conf, want)
	}
}

// TestPerhopStack: the hop trace survives sink recording and marshalling.
func TestPerhopStack(t *testing.T) {
	c, err := New("perhop", 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &dataplane.INTHeader{SourceTS: netsim.Second}
	for i := 1; i <= 3; i++ {
		if grow := c.OnHop(h, 1, topology.NodeID(10+i), i, netsim.Second+netsim.Time(i)*netsim.Millisecond); grow != PerhopHopBytes {
			t.Fatalf("OnHop grew %d bytes, want %d", grow, PerhopHopBytes)
		}
	}
	ext := c.SinkRecord(h)
	st, ok := ext.(*HopStack)
	if !ok || len(st.Hops) != 3 {
		t.Fatalf("sink record Ext = %#v, want a 3-hop stack", ext)
	}
	if st.Hops[2].Switch != 13 || st.Hops[2].SinceSourceUS != 3000 {
		t.Errorf("hop 3 = %+v, want switch 13 at 3000µs", st.Hops[2])
	}
	back, err := c.Unmarshal(c.Marshal(h), 2*netsim.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Ext.(*HopStack); !reflect.DeepEqual(got, st) {
		t.Errorf("stack did not round-trip: %+v vs %+v", got, st)
	}
}
