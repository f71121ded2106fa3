package dataplane

import (
	"testing"
	"testing/quick"

	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
)

func TestTimestampCompressionRoundTrip(t *testing.T) {
	cases := []struct {
		t, now netsim.Time
	}{
		{0, 0},
		{netsim.Second, netsim.Second + netsim.Millisecond},
		{5 * netsim.Second, 5*netsim.Second + 40*netsim.Millisecond},
		{1000 * netsim.Second, 1000*netsim.Second + 3*netsim.Second},
	}
	for _, c := range cases {
		got := DecompressTimestamp(CompressTimestamp(c.t), c.now)
		// Microsecond resolution is lossy below 1 µs.
		if d := got - c.t; d < -netsim.Microsecond || d > netsim.Microsecond {
			t.Errorf("roundtrip(%v, now=%v) = %v", c.t, c.now, got)
		}
	}
}

// Property: compression round-trips for any timestamp whose age relative
// to now is within the 32-bit microsecond window.
func TestPropertyTimestampRoundTrip(t *testing.T) {
	f := func(tsMS uint32, ageMS uint16) bool {
		orig := netsim.Time(tsMS) * netsim.Millisecond
		now := orig + netsim.Time(ageMS)*netsim.Millisecond
		got := DecompressTimestamp(CompressTimestamp(orig), now)
		d := got - orig
		return d >= -netsim.Microsecond && d <= netsim.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestINTHeaderRoundTrip(t *testing.T) {
	h := &INTHeader{
		SourceTS:        2*netsim.Second + 123*netsim.Microsecond,
		LastEpochCount:  1234,
		TotalQueueDepth: 87,
		EpochID:         21,
		Flagged:         true,
	}
	b := MarshalINT(h)
	if len(b) != TelemetryHeaderBytes {
		t.Fatalf("wire size = %d", len(b))
	}
	got := UnmarshalINT(b, 2*netsim.Second+5*netsim.Millisecond, 21)
	if got.LastEpochCount != h.LastEpochCount || got.TotalQueueDepth != h.TotalQueueDepth ||
		got.EpochID != h.EpochID || got.Flagged != h.Flagged {
		t.Errorf("roundtrip = %+v, want %+v", got, h)
	}
	if d := got.SourceTS - h.SourceTS; d < -netsim.Microsecond || d > netsim.Microsecond {
		t.Errorf("timestamp drift %v", d)
	}
}

func TestINTHeaderSaturation(t *testing.T) {
	h := &INTHeader{LastEpochCount: 1 << 20, TotalQueueDepth: 1 << 20}
	got := UnmarshalINT(MarshalINT(h), 0, 0)
	if got.LastEpochCount != 0xFFFF || got.TotalQueueDepth != 0xFFFF {
		t.Errorf("saturation failed: %+v", got)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	for _, n := range []*Notification{
		{Kind: NotifyHighLatency, Switch: 9, Flow: FlowID{Src: 6, Sink: 17},
			Time: 3 * netsim.Second, Latency: 48 * netsim.Millisecond},
		{Kind: NotifyDrop, Switch: 22, Flow: FlowID{Src: 14, Sink: 22},
			Time: 2500 * netsim.Millisecond, Dropped: 31, EpochGap: 4},
	} {
		b := MarshalNotification(n)
		got, err := UnmarshalNotification(b, n.Time+netsim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != n.Kind || got.Switch != n.Switch || got.Flow != n.Flow ||
			got.EpochGap != n.EpochGap {
			t.Errorf("roundtrip = %+v, want %+v", got, n)
		}
		if n.Kind == NotifyHighLatency && got.Latency != n.Latency {
			t.Errorf("latency = %v, want %v", got.Latency, n.Latency)
		}
		if n.Kind == NotifyDrop && got.Dropped != n.Dropped {
			t.Errorf("dropped = %d, want %d", got.Dropped, n.Dropped)
		}
	}
}

func TestNotificationRejectsGarbage(t *testing.T) {
	var b [NotificationBytes]byte
	b[0] = 99
	if _, err := UnmarshalNotification(b, 0); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestRTRecordRoundTrip(t *testing.T) {
	r := &RTRecord{
		Flow:            FlowID{Src: 14, Sink: 22},
		PathID:          pathid.ID(0xAB),
		Epoch:           37,
		Latency:         12345 * netsim.Microsecond,
		SourceCount:     120,
		SinkCount:       118,
		PathCount:       60,
		PathBytes:       42000,
		TotalQueueDepth: 31,
		EpochGap:        2,
	}
	b := MarshalRTRecord(r)
	if len(b) != RTRecordBytes {
		t.Fatalf("wire size = %d", len(b))
	}
	got := UnmarshalRTRecord(b, 22, 37, 4*netsim.Second)
	if got.Flow != r.Flow || got.PathID != r.PathID || got.Epoch != r.Epoch ||
		got.Latency != r.Latency || got.SourceCount != r.SourceCount ||
		got.SinkCount != r.SinkCount || got.PathCount != r.PathCount ||
		got.PathBytes != r.PathBytes || got.TotalQueueDepth != r.TotalQueueDepth ||
		got.EpochGap != r.EpochGap {
		t.Errorf("roundtrip = %+v, want %+v", got, r)
	}
	if got.Arrival != 4*netsim.Second {
		t.Errorf("arrival not stamped")
	}
}

// Property: RTRecord round-trips for in-range values under epoch hints
// ahead of the record's epoch.
func TestPropertyRTRecordRoundTrip(t *testing.T) {
	f := func(src uint16, id uint8, epoch uint16, latUS uint16, sc, kc, pc uint16, qd uint8, gap uint8, ahead uint8) bool {
		r := &RTRecord{
			Flow:            FlowID{Src: topology.NodeID(src), Sink: 5},
			PathID:          pathid.ID(id),
			Epoch:           uint32(epoch),
			Latency:         netsim.Time(latUS) * netsim.Microsecond,
			SourceCount:     uint32(sc),
			SinkCount:       uint32(kc),
			PathCount:       uint32(pc),
			PathBytes:       uint64(sc) * 700,
			TotalQueueDepth: uint32(qd),
			EpochGap:        uint32(gap),
		}
		hint := r.Epoch + uint32(ahead%16)
		got := UnmarshalRTRecord(MarshalRTRecord(r), 5, hint, 0)
		return got.Flow == r.Flow && got.PathID == r.PathID && got.Epoch == r.Epoch &&
			got.SourceCount == r.SourceCount && got.SinkCount == r.SinkCount &&
			got.PathCount == r.PathCount && got.TotalQueueDepth == r.TotalQueueDepth &&
			got.EpochGap == r.EpochGap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExpandEpoch(t *testing.T) {
	cases := []struct {
		low  uint16
		hint uint32
		want uint32
	}{
		{5, 5, 5},
		{5, 70000, 65536 + 5},
		{0xFFFF, 70000, 0xFFFF},
		{0xFFFE, 65537, 0xFFFE},
	}
	for _, c := range cases {
		if got := ExpandEpoch(c.low, c.hint); got != c.want {
			t.Errorf("ExpandEpoch(%d, %d) = %d, want %d", c.low, c.hint, got, c.want)
		}
	}
}
