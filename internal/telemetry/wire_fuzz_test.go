package telemetry

import (
	"bytes"
	"reflect"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
)

// The per-codec fuzz targets mirror dataplane's FuzzWireRoundTrip: each
// codec's decoder must never panic on arbitrary wire bytes, and must be
// idempotent — decode(encode(decode(b))) == decode(b) under the same
// anchors. Raw bytes are only compared where the layout defines every bit
// (reserved bits are legitimately dropped on re-encode).

// FuzzMars11RoundTrip anchors the paper's 11-byte layout at the codec
// level, for both codecs that travel as it: only 11 bytes decode, and a
// decoded header re-encodes to exactly dataplane.MarshalINT's bytes.
func FuzzMars11RoundTrip(f *testing.F) {
	f.Add(make([]byte, dataplane.TelemetryHeaderBytes), int64(0), uint32(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0x81}, int64(3*netsim.Second), uint32(70000))
	f.Fuzz(func(t *testing.T, raw []byte, nowRaw int64, epochHint uint32) {
		if nowRaw < 0 {
			nowRaw = 0 // the codecs' contract is a non-negative clock
		}
		now := netsim.Time(nowRaw)
		for _, name := range []string{"mars11", "sampled"} {
			c, err := New(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			h, err := c.Unmarshal(raw, now, epochHint)
			if len(raw) != dataplane.TelemetryHeaderBytes {
				if err == nil {
					t.Fatalf("%s: %d bytes decoded without error", name, len(raw))
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: 11 bytes failed to decode: %v", name, err)
			}
			b2 := c.Marshal(h)
			if db := dataplane.MarshalINT(h); !bytes.Equal(b2, db[:]) {
				t.Fatalf("%s diverged from dataplane layout: %v vs %v", name, b2, db)
			}
			if h2, err := c.Unmarshal(b2, now, epochHint); err != nil || !reflect.DeepEqual(h, h2) {
				t.Fatalf("%s codec not idempotent: b=%v h=%+v b2=%v h2=%+v err=%v", name, raw, h, b2, h2, err)
			}
			for i := 0; i < dataplane.TelemetryHeaderBytes-1; i++ {
				if b2[i] != raw[i] {
					t.Fatalf("%s: byte %d changed across re-encode: %#x -> %#x", name, i, raw[i], b2[i])
				}
			}
			if b2[10] != raw[10]&1 {
				t.Fatalf("%s: flags byte %#x re-encoded as %#x, want %#x", name, raw[10], b2[10], raw[10]&1)
			}
		}
	})
}

// FuzzPintlikeRoundTrip covers the 16-byte probabilistic-slot form. An
// empty slot (hop index 0) decodes to a nil Ext and zeroes the slot bytes
// on re-encode, so only header-level idempotence is asserted.
func FuzzPintlikeRoundTrip(f *testing.F) {
	f.Add(make([]byte, PintlikeWireBytes), int64(0), uint32(0))
	f.Add([]byte{0, 0, 0, 9, 0, 3, 0, 8, 0, 1, 1, 0, 12, 7, 2, 4}, int64(2*netsim.Second), uint32(41))
	f.Fuzz(func(t *testing.T, raw []byte, nowRaw int64, epochHint uint32) {
		var b [PintlikeWireBytes]byte
		copy(b[:], raw)
		if nowRaw < 0 {
			nowRaw = 0
		}
		now := netsim.Time(nowRaw)

		h := UnmarshalPintlike(b, now, epochHint)
		b2 := MarshalPintlike(h)
		h2 := UnmarshalPintlike(b2, now, epochHint)
		if !reflect.DeepEqual(h, h2) {
			t.Fatalf("pintlike codec not idempotent:\n b=%v -> %+v\nb2=%v -> %+v", b, h, b2, h2)
		}
		if b[14] != 0 && b2 != b && b2[10] == b[10] {
			// With a populated slot every byte except the flags byte is
			// defined, so nothing else may drift.
			t.Fatalf("pintlike re-encode changed defined bytes: %v -> %v", b, b2)
		}
	})
}

// FuzzPerhopRoundTrip drives the variable-length classic-INT form through
// the codec-level Unmarshal: bad lengths must error (never panic), valid
// stacks must round-trip exactly.
func FuzzPerhopRoundTrip(f *testing.F) {
	f.Add(make([]byte, dataplane.TelemetryHeaderBytes), int64(0), uint32(0))
	f.Add(make([]byte, dataplane.TelemetryHeaderBytes+2*PerhopHopBytes), int64(netsim.Second), uint32(9))
	f.Add([]byte{1, 2, 3}, int64(0), uint32(0))
	f.Fuzz(func(t *testing.T, raw []byte, nowRaw int64, epochHint uint32) {
		if nowRaw < 0 {
			nowRaw = 0
		}
		now := netsim.Time(nowRaw)
		c, err := New("perhop", 1)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.Unmarshal(raw, now, epochHint)
		if len(raw) < dataplane.TelemetryHeaderBytes || (len(raw)-dataplane.TelemetryHeaderBytes)%PerhopHopBytes != 0 {
			if err == nil {
				t.Fatalf("%d bytes decoded without error", len(raw))
			}
			return
		}
		if err != nil {
			t.Fatalf("valid length %d failed to decode: %v", len(raw), err)
		}
		b2 := c.Marshal(h)
		hops := (len(raw) - dataplane.TelemetryHeaderBytes) / PerhopHopBytes
		if want := c.WireBytes() + hops*c.HopBytes(); len(b2) != want {
			t.Fatalf("re-encode of %d-hop stack is %d bytes, want %d", hops, len(b2), want)
		}
		h2, err := c.Unmarshal(b2, now, epochHint)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(h, h2) {
			t.Fatalf("perhop codec not idempotent:\n%+v\n%+v", h, h2)
		}
	})
}
