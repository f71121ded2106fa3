package dataplane

import (
	"encoding/binary"
	"fmt"

	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// Wire formats for MARS's telemetry structures. The paper fixes the
// telemetry header at 11 bytes by compressing the source timestamp the way
// SpiderMon does [47]: the receiver only ever compares against timestamps
// from the recent past, so carrying the low bits of the nanosecond clock
// suffices and the full value is recovered relative to the receiver's own
// clock. These codecs are exercised by the switch pipeline tests and keep
// the overhead accounting honest — the constants in header.go are the
// lengths of these encodings.

// tsWindowBits is the width of the compressed timestamp: 32 bits of
// microseconds ≈ a 71-minute window, far beyond any packet lifetime.
const tsWindowBits = 32

// CompressTimestamp reduces a simulation timestamp to the 32-bit
// microsecond window carried on the wire.
func CompressTimestamp(t netsim.Time) uint32 {
	return uint32(uint64(t/netsim.Microsecond) & (1<<tsWindowBits - 1))
}

// DecompressTimestamp recovers the full timestamp of a compressed value,
// given any reference time ("now") within 2^31 µs after the original.
func DecompressTimestamp(c uint32, now netsim.Time) netsim.Time {
	nowUS := uint64(now / netsim.Microsecond)
	base := nowUS &^ (1<<tsWindowBits - 1)
	cand := base | uint64(c)
	// The carried window may have wrapped relative to now.
	if cand > nowUS {
		if cand < 1<<tsWindowBits {
			// No earlier window exists; clamp to the value itself.
			return netsim.Time(cand) * netsim.Microsecond
		}
		cand -= 1 << tsWindowBits
	}
	return netsim.Time(cand) * netsim.Microsecond
}

// MarshalINT encodes the telemetry header into its 11-byte wire form:
//
//	0:4  compressed source timestamp (µs, low 32 bits)
//	4:6  last-epoch packet count (saturating uint16)
//	6:8  total queue depth (saturating uint16)
//	8:10 epoch ID (low 16 bits)
//	10   flags (bit 0: anomaly-flagged)
func MarshalINT(h *INTHeader) [TelemetryHeaderBytes]byte {
	var b [TelemetryHeaderBytes]byte
	binary.BigEndian.PutUint32(b[0:4], CompressTimestamp(h.SourceTS))
	binary.BigEndian.PutUint16(b[4:6], sat16(h.LastEpochCount))
	binary.BigEndian.PutUint16(b[6:8], sat16(h.TotalQueueDepth))
	binary.BigEndian.PutUint16(b[8:10], uint16(h.EpochID))
	if h.Flagged {
		b[10] = 1
	}
	return b
}

// UnmarshalINT decodes an 11-byte header. now anchors timestamp recovery;
// epochHint anchors the 16-bit epoch field (pass the receiver's current
// epoch).
func UnmarshalINT(b [TelemetryHeaderBytes]byte, now netsim.Time, epochHint uint32) *INTHeader {
	h := &INTHeader{
		SourceTS:        DecompressTimestamp(binary.BigEndian.Uint32(b[0:4]), now),
		LastEpochCount:  uint32(binary.BigEndian.Uint16(b[4:6])),
		TotalQueueDepth: uint32(binary.BigEndian.Uint16(b[6:8])),
		EpochID:         ExpandEpoch(binary.BigEndian.Uint16(b[8:10]), epochHint),
		Flagged:         b[10]&1 != 0,
	}
	return h
}

// ExpandEpoch recovers a full 32-bit epoch from its low 16 bits relative
// to the receiver's current epoch (telemetry is always from the recent
// past).
func ExpandEpoch(low uint16, hint uint32) uint32 {
	base := hint &^ 0xFFFF
	cand := base | uint32(low)
	if cand > hint {
		if base == 0 {
			return cand
		}
		cand -= 1 << 16
	}
	return cand
}

func sat16(v uint32) uint16 {
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v)
}

// MarshalNotification encodes a notification into its 24-byte wire form:
//
//	0    kind
//	1:5  switch ID
//	5:9  flow source switch
//	9:13 flow sink switch
//	13:17 compressed timestamp
//	17:21 latency µs or dropped count (by kind)
//	21:23 epoch gap
//	23   reserved
func MarshalNotification(n *Notification) [NotificationBytes]byte {
	var b [NotificationBytes]byte
	b[0] = byte(n.Kind)
	binary.BigEndian.PutUint32(b[1:5], uint32(n.Switch))
	binary.BigEndian.PutUint32(b[5:9], uint32(n.Flow.Src))
	binary.BigEndian.PutUint32(b[9:13], uint32(n.Flow.Sink))
	binary.BigEndian.PutUint32(b[13:17], CompressTimestamp(n.Time))
	if n.Kind == NotifyHighLatency {
		binary.BigEndian.PutUint32(b[17:21], uint32(n.Latency/netsim.Microsecond))
	} else {
		binary.BigEndian.PutUint32(b[17:21], uint32(min(n.Dropped, 0xFFFFFFFF)))
	}
	binary.BigEndian.PutUint16(b[21:23], uint16(n.EpochGap))
	return b
}

// UnmarshalNotification decodes the 24-byte wire form; now anchors the
// timestamp recovery.
func UnmarshalNotification(b [NotificationBytes]byte, now netsim.Time) (*Notification, error) {
	k := NotificationKind(b[0])
	if k != NotifyHighLatency && k != NotifyDrop {
		return nil, fmt.Errorf("dataplane: unknown notification kind %d", b[0])
	}
	n := &Notification{
		Kind:   k,
		Switch: topology.NodeID(binary.BigEndian.Uint32(b[1:5])),
		Flow: FlowID{
			Src:  topology.NodeID(binary.BigEndian.Uint32(b[5:9])),
			Sink: topology.NodeID(binary.BigEndian.Uint32(b[9:13])),
		},
		Time:     DecompressTimestamp(binary.BigEndian.Uint32(b[13:17]), now),
		EpochGap: uint32(binary.BigEndian.Uint16(b[21:23])),
	}
	v := binary.BigEndian.Uint32(b[17:21])
	if k == NotifyHighLatency {
		n.Latency = netsim.Time(v) * netsim.Microsecond
	} else {
		n.Dropped = int64(v)
	}
	return n, nil
}

// MarshalRTRecord encodes a Ring Table record into its 28-byte collection
// form:
//
//	0:4   flow source switch
//	4:6   PathID (16 bits carried; the 8-bit default fits)
//	6:8   epoch (low 16 bits)
//	8:12  latency µs
//	12:14 source count (sat)
//	14:16 sink count (sat)
//	16:18 path count (sat)
//	18:22 path bytes (sat uint32)
//	22:24 total queue depth (sat)
//	24:26 epoch gap (sat)
//	26:28 reserved / alignment
//
// The sink switch is implicit (the controller knows which switch it is
// pulling from), matching the paper's FlowID simplification.
func MarshalRTRecord(r *RTRecord) [RTRecordBytes]byte {
	var b [RTRecordBytes]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(r.Flow.Src))
	binary.BigEndian.PutUint16(b[4:6], uint16(r.PathID))
	binary.BigEndian.PutUint16(b[6:8], uint16(r.Epoch))
	binary.BigEndian.PutUint32(b[8:12], uint32(r.Latency/netsim.Microsecond))
	binary.BigEndian.PutUint16(b[12:14], sat16(r.SourceCount))
	binary.BigEndian.PutUint16(b[14:16], sat16(r.SinkCount))
	binary.BigEndian.PutUint16(b[16:18], sat16(r.PathCount))
	binary.BigEndian.PutUint32(b[18:22], sat32(r.PathBytes))
	binary.BigEndian.PutUint16(b[22:24], sat16(r.TotalQueueDepth))
	binary.BigEndian.PutUint16(b[24:26], sat16(r.EpochGap))
	return b
}

// UnmarshalRTRecord decodes the 28-byte collection form. sink restores the
// implicit sink switch; epochHint anchors epoch expansion; arrival is not
// carried on the wire (the controller stamps collection time).
func UnmarshalRTRecord(b [RTRecordBytes]byte, sink topology.NodeID, epochHint uint32, arrival netsim.Time) *RTRecord {
	return &RTRecord{
		Flow: FlowID{
			Src:  topology.NodeID(binary.BigEndian.Uint32(b[0:4])),
			Sink: sink,
		},
		PathID:          pathid.ID(binary.BigEndian.Uint16(b[4:6])),
		Epoch:           ExpandEpoch(binary.BigEndian.Uint16(b[6:8]), epochHint),
		Latency:         netsim.Time(binary.BigEndian.Uint32(b[8:12])) * netsim.Microsecond,
		SourceCount:     uint32(binary.BigEndian.Uint16(b[12:14])),
		SinkCount:       uint32(binary.BigEndian.Uint16(b[14:16])),
		PathCount:       uint32(binary.BigEndian.Uint16(b[16:18])),
		PathBytes:       uint64(binary.BigEndian.Uint32(b[18:22])),
		TotalQueueDepth: uint32(binary.BigEndian.Uint16(b[22:24])),
		EpochGap:        uint32(binary.BigEndian.Uint16(b[24:26])),
		Arrival:         arrival,
	}
}

func sat32(v uint64) uint32 {
	if v > 0xFFFFFFFF {
		return 0xFFFFFFFF
	}
	return uint32(v)
}
