package ctrlchan

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// Wire formats for the control channel. In the simulator, Messages travel
// as Go values over the deterministic Channel; the real-process deployment
// mode (internal/deploy, cmd/mars-node) sends the same Messages over UDP
// sockets as versioned, length-framed byte frames. Every frame is
//
//	header [FrameHeaderBytes]byte   (magic, version, kind, seq, switch,
//	                                 payload length)
//	payload [Len]byte               (layout fixed per Kind)
//
// in big-endian, with each field's byte span written out: the
// fixed-size layouts are Marshal/Unmarshal [N]byte pairs, which
// TestMessageWireRoundTrip and FuzzMessageRoundTrip check for
// encode/decode symmetry, and the variable-length frame assembly
// (EncodeMessage/DecodeMessage) composes them. Unlike the in-band
// telemetry layouts, which no program serializes (their widths are
// declared constants in dataplane/header.go), these frames carry full
// field widths — the control channel is not byte-budgeted. The *modeled*
// size the experiments account (Message.Wire) stays with its sender,
// which counts it; a decoded Message has Wire zero.

// Frame constants.
const (
	// FrameMagic opens every frame ("M1" big-endian).
	FrameMagic = 0x4D31
	// FrameVersion is the protocol version this build speaks. A version
	// bump is a wire break: peers reject frames from other versions.
	FrameVersion = 2
	// FrameHeaderBytes is the fixed frame header size.
	FrameHeaderBytes = 20
	// NotificationWireBytes is the full-width notification payload.
	NotificationWireBytes = 41
	// RecordWireBytes is one full-width Ring Table record (including the
	// sink switch and arrival time, which the in-band 28-byte collection
	// form leaves implicit).
	RecordWireBytes = 60
	// ThresholdWireBytes is one threshold push/ack entry.
	ThresholdWireBytes = 16
	// responseHeadBytes prefixes collect/refresh response payloads:
	// 8-byte snapshot stamp + 4-byte record count.
	responseHeadBytes = 12
	// countBytes prefixes threshold push/ack payloads: the entry count.
	countBytes = 4
	// MaxFramePayload bounds a frame's payload; DecodeMessage rejects
	// anything larger before allocating.
	MaxFramePayload = 1 << 22
)

// Frame decoding errors.
var (
	// ErrShortFrame means the buffer ends before the frame does; a stream
	// reader should read more bytes and retry.
	ErrShortFrame = errors.New("ctrlchan: short frame")
	// ErrBadFrame means the bytes cannot be a frame (bad magic, version,
	// kind, or a payload inconsistent with its kind) and must be dropped.
	ErrBadFrame = errors.New("ctrlchan: bad frame")
)

// FrameHeader is the decoded fixed header of one frame; its version is
// FrameVersion, or it does not decode.
type FrameHeader struct {
	Kind   Kind
	Seq    uint64
	Switch topology.NodeID
	// Len is the payload length following the header.
	Len uint32
}

// marshalFrameHeader encodes the fixed frame header:
//
//	0:2   magic
//	2     version
//	3     kind
//	4:12  sequence number
//	12:16 switch ID
//	16:20 payload length
func marshalFrameHeader(h *FrameHeader) [FrameHeaderBytes]byte {
	var b [FrameHeaderBytes]byte
	binary.BigEndian.PutUint16(b[0:2], FrameMagic)
	b[2] = FrameVersion
	b[3] = byte(h.Kind)
	binary.BigEndian.PutUint64(b[4:12], h.Seq)
	binary.BigEndian.PutUint32(b[12:16], uint32(h.Switch))
	binary.BigEndian.PutUint32(b[16:20], h.Len)
	return b
}

// unmarshalFrameHeader decodes and validates the fixed frame header.
func unmarshalFrameHeader(b [FrameHeaderBytes]byte) (FrameHeader, error) {
	if binary.BigEndian.Uint16(b[0:2]) != FrameMagic {
		return FrameHeader{}, fmt.Errorf("%w: magic %#04x", ErrBadFrame, binary.BigEndian.Uint16(b[0:2]))
	}
	if b[2] != FrameVersion {
		return FrameHeader{}, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, b[2], FrameVersion)
	}
	h := FrameHeader{
		Kind:   Kind(b[3]),
		Seq:    binary.BigEndian.Uint64(b[4:12]),
		Switch: topology.NodeID(binary.BigEndian.Uint32(b[12:16])),
		Len:    binary.BigEndian.Uint32(b[16:20]),
	}
	if h.Kind > KindThresholdAck {
		return FrameHeader{}, fmt.Errorf("%w: kind %d", ErrBadFrame, h.Kind)
	}
	if h.Len > MaxFramePayload {
		return FrameHeader{}, fmt.Errorf("%w: payload %d exceeds %d", ErrBadFrame, h.Len, MaxFramePayload)
	}
	return h, nil
}

// marshalNotificationWire encodes a notification payload at full width
// (unlike the in-band 24-byte form, no timestamp compression — control
// frames are not byte-budgeted):
//
//	0     notification kind
//	1:5   switch ID
//	5:9   flow source switch
//	9:13  flow sink switch
//	13:21 event time (ns)
//	21:29 latency (ns)
//	29:37 dropped count
//	37:41 epoch gap
func marshalNotificationWire(n *dataplane.Notification) [NotificationWireBytes]byte {
	var b [NotificationWireBytes]byte
	b[0] = byte(n.Kind)
	binary.BigEndian.PutUint32(b[1:5], uint32(n.Switch))
	binary.BigEndian.PutUint32(b[5:9], uint32(n.Flow.Src))
	binary.BigEndian.PutUint32(b[9:13], uint32(n.Flow.Sink))
	binary.BigEndian.PutUint64(b[13:21], uint64(n.Time))
	binary.BigEndian.PutUint64(b[21:29], uint64(n.Latency))
	binary.BigEndian.PutUint64(b[29:37], uint64(n.Dropped))
	binary.BigEndian.PutUint32(b[37:41], n.EpochGap)
	return b
}

// unmarshalNotificationWire decodes the full-width notification payload.
func unmarshalNotificationWire(b [NotificationWireBytes]byte) (dataplane.Notification, error) {
	k := dataplane.NotificationKind(b[0])
	if k != dataplane.NotifyHighLatency && k != dataplane.NotifyDrop {
		return dataplane.Notification{}, fmt.Errorf("%w: notification kind %d", ErrBadFrame, b[0])
	}
	return dataplane.Notification{
		Kind:   k,
		Switch: topology.NodeID(binary.BigEndian.Uint32(b[1:5])),
		Flow: dataplane.FlowID{
			Src:  topology.NodeID(binary.BigEndian.Uint32(b[5:9])),
			Sink: topology.NodeID(binary.BigEndian.Uint32(b[9:13])),
		},
		Time:     netsim.Time(binary.BigEndian.Uint64(b[13:21])),
		Latency:  netsim.Time(binary.BigEndian.Uint64(b[21:29])),
		Dropped:  int64(binary.BigEndian.Uint64(b[29:37])),
		EpochGap: binary.BigEndian.Uint32(b[37:41]),
	}, nil
}

// marshalRecordWire encodes one Ring Table record at full width for
// collect/refresh response payloads:
//
//	0:4   flow source switch
//	4:8   flow sink switch
//	8:12  PathID
//	12:16 epoch
//	16:24 latency (ns)
//	24:28 source count
//	28:32 sink count
//	32:36 path count
//	36:44 path bytes
//	44:48 total queue depth
//	48:52 epoch gap
//	52:60 arrival time (ns)
//
// pintlike's slot bytes (RTRecord.SlotIndex, SlotHops) do not cross the
// socket: the deployment mode runs the default exact encoding, under
// which they are zero.
func marshalRecordWire(r *dataplane.RTRecord) [RecordWireBytes]byte {
	var b [RecordWireBytes]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(r.Flow.Src))
	binary.BigEndian.PutUint32(b[4:8], uint32(r.Flow.Sink))
	binary.BigEndian.PutUint32(b[8:12], uint32(r.PathID))
	binary.BigEndian.PutUint32(b[12:16], r.Epoch)
	binary.BigEndian.PutUint64(b[16:24], uint64(r.Latency))
	binary.BigEndian.PutUint32(b[24:28], r.SourceCount)
	binary.BigEndian.PutUint32(b[28:32], r.SinkCount)
	binary.BigEndian.PutUint32(b[32:36], r.PathCount)
	binary.BigEndian.PutUint64(b[36:44], r.PathBytes)
	binary.BigEndian.PutUint32(b[44:48], r.TotalQueueDepth)
	binary.BigEndian.PutUint32(b[48:52], r.EpochGap)
	binary.BigEndian.PutUint64(b[52:60], uint64(r.Arrival))
	return b
}

// unmarshalRecordWire decodes one full-width Ring Table record.
func unmarshalRecordWire(b [RecordWireBytes]byte) dataplane.RTRecord {
	return dataplane.RTRecord{
		Flow: dataplane.FlowID{
			Src:  topology.NodeID(binary.BigEndian.Uint32(b[0:4])),
			Sink: topology.NodeID(binary.BigEndian.Uint32(b[4:8])),
		},
		PathID:          pathid.ID(binary.BigEndian.Uint32(b[8:12])),
		Epoch:           binary.BigEndian.Uint32(b[12:16]),
		Latency:         netsim.Time(binary.BigEndian.Uint64(b[16:24])),
		SourceCount:     binary.BigEndian.Uint32(b[24:28]),
		SinkCount:       binary.BigEndian.Uint32(b[28:32]),
		PathCount:       binary.BigEndian.Uint32(b[32:36]),
		PathBytes:       binary.BigEndian.Uint64(b[36:44]),
		TotalQueueDepth: binary.BigEndian.Uint32(b[44:48]),
		EpochGap:        binary.BigEndian.Uint32(b[48:52]),
		Arrival:         netsim.Time(binary.BigEndian.Uint64(b[52:60])),
	}
}

// marshalThresholdWire encodes one threshold push/ack entry:
//
//	0:4  flow source switch
//	4:8  flow sink switch
//	8:16 threshold (ns)
func marshalThresholdWire(e *Threshold) [ThresholdWireBytes]byte {
	var b [ThresholdWireBytes]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(e.Flow.Src))
	binary.BigEndian.PutUint32(b[4:8], uint32(e.Flow.Sink))
	binary.BigEndian.PutUint64(b[8:16], uint64(e.Value))
	return b
}

// unmarshalThresholdWire decodes one threshold push/ack entry.
func unmarshalThresholdWire(b [ThresholdWireBytes]byte) Threshold {
	return Threshold{
		Flow: dataplane.FlowID{
			Src:  topology.NodeID(binary.BigEndian.Uint32(b[0:4])),
			Sink: topology.NodeID(binary.BigEndian.Uint32(b[4:8])),
		},
		Value: netsim.Time(binary.BigEndian.Uint64(b[8:16])),
	}
}

// payloadLen returns the encoded payload size of m.
func payloadLen(m *Message) int {
	switch m.Kind {
	case KindNotification, KindCollectRequest:
		// A collect request carries its trigger notification so a remote
		// switch agent can identify the diagnosis being served.
		return NotificationWireBytes
	case KindCollectResponse, KindRefreshResponse:
		return responseHeadBytes + len(m.Records)*RecordWireBytes
	case KindRefreshRequest:
		return 8 // watermark
	case KindThresholdPush, KindThresholdAck:
		return countBytes + len(m.Thresholds)*ThresholdWireBytes
	}
	return 0
}

// EncodeMessage renders one Message as a complete frame.
func EncodeMessage(m *Message) []byte { return appendMessage(nil, m) }

// appendMessage appends m's complete frame to out and returns the extended
// slice, growing it at most once: a sender that keeps the result encodes
// every later frame of no greater size without allocating.
func appendMessage(out []byte, m *Message) []byte {
	plen := payloadLen(m)
	h := FrameHeader{Kind: m.Kind, Seq: m.Seq, Switch: m.Switch, Len: uint32(plen)}
	out = slices.Grow(out, FrameHeaderBytes+plen)
	hb := marshalFrameHeader(&h)
	out = append(out, hb[:]...)
	switch m.Kind {
	case KindNotification, KindCollectRequest:
		nb := marshalNotificationWire(&m.Note)
		out = append(out, nb[:]...)
	case KindCollectResponse, KindRefreshResponse:
		var head [responseHeadBytes]byte
		binary.BigEndian.PutUint64(head[0:8], uint64(m.Stamp))
		binary.BigEndian.PutUint32(head[8:12], uint32(len(m.Records)))
		out = append(out, head[:]...)
		for i := range m.Records {
			rb := marshalRecordWire(&m.Records[i])
			out = append(out, rb[:]...)
		}
	case KindRefreshRequest:
		var wb [8]byte
		binary.BigEndian.PutUint64(wb[:], uint64(m.Watermark))
		out = append(out, wb[:]...)
	case KindThresholdPush, KindThresholdAck:
		out = binary.BigEndian.AppendUint32(out, uint32(len(m.Thresholds)))
		for i := range m.Thresholds {
			tb := marshalThresholdWire(&m.Thresholds[i])
			out = append(out, tb[:]...)
		}
	}
	return out
}

// DecodeMessage parses one frame from the front of b, returning the
// message and the number of bytes consumed. ErrShortFrame means b ends
// before the frame does (a stream reader should buffer more and retry);
// ErrBadFrame means the bytes are not a valid frame and must be dropped.
// The Message owns its records and thresholds, each in a slice of exactly
// their count; none aliases b.
func DecodeMessage(b []byte) (Message, int, error) { return decodeMessage(b, nil, nil) }

// decodeMessage is DecodeMessage with the Message's records and thresholds
// decoded into slices taken from recs and ths (freeList.take).
func decodeMessage(b []byte, recs *freeList[dataplane.RTRecord], ths *freeList[Threshold]) (Message, int, error) {
	if len(b) < FrameHeaderBytes {
		return Message{}, 0, ErrShortFrame
	}
	var hb [FrameHeaderBytes]byte
	copy(hb[:], b[:FrameHeaderBytes])
	h, err := unmarshalFrameHeader(hb)
	if err != nil {
		return Message{}, 0, err
	}
	total := FrameHeaderBytes + int(h.Len)
	if len(b) < total {
		return Message{}, 0, ErrShortFrame
	}
	p := b[FrameHeaderBytes:total]
	m := Message{Kind: h.Kind, Seq: h.Seq, Switch: h.Switch}
	switch h.Kind {
	case KindNotification, KindCollectRequest:
		if len(p) != NotificationWireBytes {
			return Message{}, 0, fmt.Errorf("%w: %v payload %d bytes, want %d", ErrBadFrame, h.Kind, len(p), NotificationWireBytes)
		}
		var nb [NotificationWireBytes]byte
		copy(nb[:], p)
		n, err := unmarshalNotificationWire(nb)
		if err != nil {
			return Message{}, 0, err
		}
		m.Note = n
	case KindCollectResponse, KindRefreshResponse:
		if len(p) < responseHeadBytes {
			return Message{}, 0, fmt.Errorf("%w: %v payload %d bytes, want >= %d", ErrBadFrame, h.Kind, len(p), responseHeadBytes)
		}
		m.Stamp = netsim.Time(binary.BigEndian.Uint64(p[0:8]))
		count := int(binary.BigEndian.Uint32(p[8:12]))
		if len(p) != responseHeadBytes+count*RecordWireBytes {
			return Message{}, 0, fmt.Errorf("%w: %v record count %d disagrees with payload %d bytes", ErrBadFrame, h.Kind, count, len(p))
		}
		if count > 0 {
			m.Records = recs.take(count)
			for i := 0; i < count; i++ {
				var rb [RecordWireBytes]byte
				copy(rb[:], p[responseHeadBytes+i*RecordWireBytes:])
				m.Records[i] = unmarshalRecordWire(rb)
			}
		}
	case KindRefreshRequest:
		if len(p) != 8 {
			return Message{}, 0, fmt.Errorf("%w: refresh-req payload %d bytes, want 8", ErrBadFrame, len(p))
		}
		m.Watermark = netsim.Time(binary.BigEndian.Uint64(p))
	case KindThresholdPush, KindThresholdAck:
		if len(p) < countBytes {
			return Message{}, 0, fmt.Errorf("%w: %v payload %d bytes, want >= %d", ErrBadFrame, h.Kind, len(p), countBytes)
		}
		count := int(binary.BigEndian.Uint32(p[0:countBytes]))
		if len(p) != countBytes+count*ThresholdWireBytes {
			return Message{}, 0, fmt.Errorf("%w: %v entry count %d disagrees with payload %d bytes", ErrBadFrame, h.Kind, count, len(p))
		}
		if count > 0 {
			m.Thresholds = ths.take(count)
			for i := 0; i < count; i++ {
				var tb [ThresholdWireBytes]byte
				copy(tb[:], p[countBytes+i*ThresholdWireBytes:])
				m.Thresholds[i] = unmarshalThresholdWire(tb)
			}
		}
	}
	return m, total, nil
}
