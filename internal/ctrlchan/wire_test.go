package ctrlchan

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
)

// wireMessages is a corpus covering every kind and payload shape. None sets
// Wire: the modelled size is counted by its sender and does not cross.
func wireMessages() []Message {
	note := dataplane.Notification{
		Kind:     dataplane.NotifyDrop,
		Switch:   7,
		Flow:     dataplane.FlowID{Src: 3, Sink: 9},
		Time:     2345 * netsim.Millisecond,
		Dropped:  41,
		EpochGap: 2,
	}
	recs := []dataplane.RTRecord{
		{
			Flow: dataplane.FlowID{Src: 1, Sink: 2}, PathID: 0xAB, Epoch: 23,
			Latency: 830 * netsim.Microsecond, SourceCount: 120, SinkCount: 117,
			PathCount: 64, PathBytes: 96000, TotalQueueDepth: 9, EpochGap: 1,
			Arrival: 2400 * netsim.Millisecond,
		},
		{
			Flow: dataplane.FlowID{Src: 5, Sink: 2}, PathID: 0x11, Epoch: 24,
			Latency: 120 * netsim.Microsecond, SourceCount: 80, SinkCount: 80,
			Arrival: 2500 * netsim.Millisecond,
		},
	}
	entries := []Threshold{
		{Flow: dataplane.FlowID{Src: 1, Sink: 2}, Value: 700 * netsim.Microsecond},
		{Flow: dataplane.FlowID{Src: 5, Sink: 2}, Value: 1200 * netsim.Microsecond},
		// Past 2^32 ns: a threshold field narrowed to 4 bytes loses it.
		{Flow: dataplane.FlowID{Src: 6, Sink: 2}, Value: 5 * netsim.Second},
	}
	return []Message{
		{Kind: KindNotification, Seq: 1, Switch: 7, Note: note},
		{Kind: KindCollectRequest, Seq: 2, Switch: 9, Note: note},
		{Kind: KindCollectResponse, Seq: 2, Switch: 9, Records: recs, Stamp: 2600 * netsim.Millisecond},
		{Kind: KindRefreshRequest, Seq: 3, Switch: 4, Watermark: 1900 * netsim.Millisecond},
		{Kind: KindRefreshResponse, Seq: 3, Switch: 4, Records: recs[:1], Stamp: 2 * netsim.Second},
		{Kind: KindRefreshResponse, Seq: 8, Switch: 4}, // empty response
		{Kind: KindThresholdPush, Seq: 5, Switch: 11, Thresholds: entries},
		{Kind: KindThresholdAck, Seq: 5, Switch: 11, Thresholds: entries},
	}
}

// TestWireDoesNotCross: a frame carries the message, not the modelled size
// its sender counted.
func TestWireDoesNotCross(t *testing.T) {
	want := Message{Kind: KindThresholdAck, Seq: 5, Switch: 11}
	sent := want
	sent.Wire = AckBytes
	got, _, err := DecodeMessage(EncodeMessage(&sent))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v (%v), want %+v", got, err, want)
	}
}

func TestMessageWireRoundTrip(t *testing.T) {
	for _, want := range wireMessages() {
		b := EncodeMessage(&want)
		got, n, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Kind, err)
		}
		if n != len(b) {
			t.Fatalf("%v: consumed %d of %d bytes", want.Kind, n, len(b))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

// TestDecodeStreamed verifies frames concatenate: a stream reader can
// decode back-to-back frames by consumed-length framing.
func TestDecodeStreamed(t *testing.T) {
	msgs := wireMessages()
	var stream []byte
	for i := range msgs {
		stream = append(stream, EncodeMessage(&msgs[i])...)
	}
	for i := 0; len(stream) > 0; i++ {
		got, n, err := DecodeMessage(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, msgs[i]) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, msgs[i])
		}
		stream = stream[n:]
	}
}

func TestDecodeShortFrame(t *testing.T) {
	m := wireMessages()[2] // collect response with records
	full := EncodeMessage(&m)
	for cut := 0; cut < len(full); cut++ {
		_, _, err := DecodeMessage(full[:cut])
		if !errors.Is(err, ErrShortFrame) {
			t.Fatalf("truncated at %d/%d: err = %v, want ErrShortFrame", cut, len(full), err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	base := EncodeMessage(&Message{Kind: KindRefreshRequest, Seq: 1, Switch: 2})

	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), base...)
		mutate(b)
		if _, _, err := DecodeMessage(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 0xFF })
	corrupt("bad version", func(b []byte) { b[2] = FrameVersion + 1 })
	corrupt("bad kind", func(b []byte) { b[3] = 200 })
	corrupt("payload too short for kind", func(b []byte) {
		binary.BigEndian.PutUint32(b[16:20], 4) // refresh-req wants 8
	})

	// Oversized declared payload must be rejected before allocation.
	big := append([]byte(nil), base...)
	binary.BigEndian.PutUint32(big[16:20], MaxFramePayload+1)
	if _, _, err := DecodeMessage(big); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized payload: err = %v, want ErrBadFrame", err)
	}

	// A response whose record count disagrees with the payload length.
	resp := EncodeMessage(&Message{Kind: KindCollectResponse, Seq: 2, Switch: 3,
		Records: []dataplane.RTRecord{{Flow: dataplane.FlowID{Src: 1, Sink: 3}}}})
	binary.BigEndian.PutUint32(resp[FrameHeaderBytes+8:FrameHeaderBytes+12], 7)
	if _, _, err := DecodeMessage(resp); !errors.Is(err, ErrBadFrame) {
		t.Errorf("record count mismatch: err = %v, want ErrBadFrame", err)
	}

	// A push whose entry count disagrees with the payload length.
	push := EncodeMessage(&wireMessages()[6])
	binary.BigEndian.PutUint32(push[FrameHeaderBytes:FrameHeaderBytes+4], 1<<30)
	if _, _, err := DecodeMessage(push); !errors.Is(err, ErrBadFrame) {
		t.Errorf("entry count mismatch: err = %v, want ErrBadFrame", err)
	}

	// A notification payload carrying an unknown notification kind.
	note := EncodeMessage(&Message{Kind: KindNotification, Seq: 3, Switch: 1})
	note[FrameHeaderBytes] = 99
	if _, _, err := DecodeMessage(note); !errors.Is(err, ErrBadFrame) {
		t.Errorf("bad notification kind: err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeEmptyInput(t *testing.T) {
	if _, _, err := DecodeMessage(nil); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("nil input: err = %v, want ErrShortFrame", err)
	}
}
