package ctrlchan

import (
	"errors"
	"reflect"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// FuzzDecodeMessage drives the frame decoder with arbitrary bytes: it must
// never panic, must classify every input as a message / short frame / bad
// frame, and any accepted message must re-encode to bytes the decoder
// accepts identically (decode∘encode idempotence over the accepted set).
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []Message{
		{Kind: KindNotification, Seq: 1, Switch: 7,
			Note: dataplane.Notification{Kind: dataplane.NotifyDrop, Switch: 7,
				Flow: dataplane.FlowID{Src: 3, Sink: 9}, Time: netsim.Second, Dropped: 12}},
		{Kind: KindCollectRequest, Seq: 2, Switch: 9},
		{Kind: KindCollectResponse, Seq: 2, Switch: 9, Stamp: 2 * netsim.Second,
			Records: []dataplane.RTRecord{{Flow: dataplane.FlowID{Src: 1, Sink: 2},
				PathID: 0xAB, Epoch: 23, Latency: 830 * netsim.Microsecond,
				SourceCount: 120, SinkCount: 117, Arrival: 2400 * netsim.Millisecond}}},
		{Kind: KindRefreshRequest, Seq: 3, Switch: 4, Watermark: 1900 * netsim.Millisecond},
		{Kind: KindThresholdPush, Seq: 5, Switch: 11, Thresholds: []Threshold{
			{Flow: dataplane.FlowID{Src: 1, Sink: 2}, Value: 700 * netsim.Microsecond}}},
	} {
		f.Add(EncodeMessage(&m))
	}
	f.Add([]byte{0x4D, 0x31, 1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, n, err := DecodeMessage(raw)
		if err != nil {
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if n < FrameHeaderBytes || n > len(raw) {
			t.Fatalf("consumed %d bytes of %d", n, len(raw))
		}
		b2 := EncodeMessage(&m)
		m2, n2, err := DecodeMessage(b2)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if n2 != len(b2) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(b2))
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("codec not idempotent:\n m=%+v\nm2=%+v", m, m2)
		}
	})
}

// FuzzMessageRoundTrip goes the other direction: any in-range message must
// survive encode -> decode exactly.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(1), int32(7), int32(3), int32(9), int64(netsim.Second),
		int64(500*netsim.Microsecond), int64(0), uint32(0), uint8(2))
	f.Add(uint8(2), uint64(99), int32(2), int32(1), int32(2), int64(0),
		int64(0), int64(41), uint32(3), uint8(3))
	f.Add(uint8(5), uint64(7), int32(11), int32(4), int32(6), int64(2*netsim.Second),
		int64(700*netsim.Microsecond), int64(0), uint32(0), uint8(2))
	f.Fuzz(func(t *testing.T, kind uint8, seq uint64, sw, src, sink int32,
		ts, lat, dropped int64, gap uint32, nrec uint8) {
		k := Kind(kind % uint8(KindThresholdAck+1))
		nk := dataplane.NotifyHighLatency
		if dropped != 0 {
			nk = dataplane.NotifyDrop
		}
		m := Message{Kind: k, Seq: seq, Switch: topology.NodeID(sw)}
		switch k {
		case KindNotification, KindCollectRequest:
			m.Note = dataplane.Notification{Kind: nk, Switch: topology.NodeID(sw),
				Flow: dataplane.FlowID{Src: topology.NodeID(src), Sink: topology.NodeID(sink)},
				Time: netsim.Time(ts), Latency: netsim.Time(lat),
				Dropped: dropped, EpochGap: gap}
		case KindCollectResponse, KindRefreshResponse:
			m.Stamp = netsim.Time(ts)
			for i := uint8(0); i < nrec%8; i++ {
				m.Records = append(m.Records, dataplane.RTRecord{
					Flow:        dataplane.FlowID{Src: topology.NodeID(src), Sink: topology.NodeID(sink)},
					Epoch:       gap + uint32(i),
					Latency:     netsim.Time(lat),
					SourceCount: uint32(dropped) + uint32(i),
					Arrival:     netsim.Time(ts) + netsim.Time(i),
				})
			}
		case KindRefreshRequest:
			m.Watermark = netsim.Time(ts)
		case KindThresholdPush, KindThresholdAck:
			for i := uint8(0); i < nrec%8; i++ {
				m.Thresholds = append(m.Thresholds, Threshold{
					Flow:  dataplane.FlowID{Src: topology.NodeID(src) + topology.NodeID(i), Sink: topology.NodeID(sink)},
					Value: netsim.Time(lat) + netsim.Time(i),
				})
			}
		}
		b := EncodeMessage(&m)
		got, n, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", m, err)
		}
		if n != len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
		}
	})
}
