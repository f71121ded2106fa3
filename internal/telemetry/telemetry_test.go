package telemetry

import (
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

// TestDeclaredWidths pins every codec's declared widths, and the
// collection widths, by name: the byte accounting charges these
// constants, and no encoder checks them against a layout.
func TestDeclaredWidths(t *testing.T) {
	for _, tc := range []struct {
		name              string
		wire, hop, record int
	}{
		{"mars11", 11, 0, 28},
		{"sampled", 11, 0, 28},
		{"perhop", 11, 8, 28},
		{"pintlike", 16, 0, 28},
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
		if got := c.RecordBytes(); got != tc.record {
			t.Errorf("%s: RecordBytes() = %d, want %d", tc.name, got, tc.record)
		}
	}
	if dataplane.NotificationBytes != 24 {
		t.Errorf("NotificationBytes = %d, want 24", dataplane.NotificationBytes)
	}
	if dataplane.RTRecordBytes != 28 {
		t.Errorf("RTRecordBytes = %d, want 28", dataplane.RTRecordBytes)
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

// TestPerhopStack: every hop grows the header by one stack entry, and
// the only state carried is the paper's accumulator.
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
	if h.TotalQueueDepth != 1+2+3 || h.Ext != nil || c.SinkRecord(h) != nil {
		t.Errorf("header after 3 hops = %+v, want the paper's accumulator only", h)
	}
}
