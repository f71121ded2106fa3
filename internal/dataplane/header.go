// Package dataplane implements the MARS switch program (§4.2): the Go
// equivalent of the paper's 1429-line P4 pipeline. It attaches to the
// simulator's Hooks interface and performs, per packet:
//
//   - PathID chaining at every hop (naïve and telemetry packets alike),
//   - telemetry-header insertion at source switches (one packet per flow
//     per epoch becomes a telemetry packet carrying 11 bytes),
//   - in-network accumulation of total queue depth,
//   - per-flow packet/byte counting at edge switches (Ingress Table at
//     sources, Egress Table at sinks),
//   - Ring Table recording of telemetry records at sinks,
//   - in-switch anomaly detection (dynamic latency thresholds, drop
//     detection via count mismatch and epoch-ID gaps) with notification
//     suppression, and
//   - INT header stripping at the sink so monitoring stays transparent to
//     hosts.
package dataplane

import (
	"fmt"

	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// FlowID is MARS's flow identity: ⟨source switch, sink switch⟩, no host
// information (§4.1). All host pairs behind the same edge-switch pair
// share a FlowID.
type FlowID struct {
	Src, Sink topology.NodeID
}

func (f FlowID) String() string { return fmt.Sprintf("<s%d,s%d>", f.Src, f.Sink) }

// Key packs f into one word, Src in the high half: distinct FlowIDs, negative
// IDs included, have distinct keys.
func (f FlowID) Key() uint64 { return uint64(uint32(f.Src))<<32 | uint64(uint32(f.Sink)) }

// Wire-size constants used for the Fig. 9 bandwidth accounting. No
// program serializes these layouts: the simulator carries INTHeader,
// Notification and RTRecord as Go values at full width (nanosecond
// SourceTS, 32-bit epoch and count fields), while the modeled layouts
// below carry a microsecond timestamp and 16-bit fields. Fig. 9 and
// `mars-bench -exp overhead` charge the modeled widths. The control
// channel's UDP frames (internal/ctrlchan/wire.go) are a separate,
// full-width format.
const (
	// TelemetryHeaderBytes is the INT payload of a telemetry packet: source
	// timestamp (compressed, 4 B), last-epoch packet count (2 B), total
	// queue depth (2 B), epoch ID (2 B), flags/category (1 B) — the
	// paper's 11 bytes including the option framing.
	TelemetryHeaderBytes = 11
	// NotificationBytes is one data-plane → control-plane anomaly
	// notification: kind (1 B), switch ID (4 B), flow source and sink
	// switches (4 B each), compressed timestamp (µs, 4 B), latency in µs
	// or dropped count by kind (4 B), epoch gap (2 B), reserved (1 B).
	NotificationBytes = 24
	// RTRecordBytes is one Ring Table record during on-demand
	// collection: flow source switch (4 B), PathID (2 B), epoch (low
	// 16 bits, 2 B), latency µs (4 B), source, sink and path counts
	// (2 B each), path bytes (4 B), total queue depth (2 B), epoch gap
	// (2 B), reserved (2 B). The sink switch is implicit: the controller
	// knows which switch it pulls from.
	RTRecordBytes = 28
	// ThresholdPushBytes is one per-flow threshold update pushed from the
	// control plane to a switch.
	ThresholdPushBytes = 12
)

// INTHeader is the telemetry header carried by telemetry packets.
type INTHeader struct {
	// SourceTS is the time the packet entered the source switch.
	SourceTS netsim.Time
	// LastEpochCount is the source switch's packet count for this FlowID
	// in the previous epoch.
	LastEpochCount uint32
	// TotalQueueDepth accumulates each hop's egress queue occupancy
	// (in-network computation).
	TotalQueueDepth uint32
	// EpochID is the telemetry epoch this packet samples.
	EpochID uint32
	// Flagged suppresses anomaly detection at subsequent hops once one
	// switch has notified the control plane (§4.2.2).
	Flagged bool
	// SlotIndex and SlotHops are the pintlike codec's sampled hop slot
	// (zero under every other codec): the 1-based position of the hop the
	// slot holds, 0 for an empty slot, and the hops traversed so far.
	SlotIndex, SlotHops uint8
}

// PacketMeta is MARS's per-packet state: the PathID field present on every
// packet plus the INT header on telemetry packets. It rides in
// netsim.Packet.Meta.
type PacketMeta struct {
	PathID pathid.ID
	// SourceSwitch is recorded for FlowID reconstruction at the sink.
	SourceSwitch topology.NodeID
	// INT is nil for naïve packets; on telemetry packets it points at the
	// embedded hdr below so promotion needs no separate allocation.
	INT *INTHeader
	// hdr is the in-place storage for INT, enabling PacketMeta pooling.
	hdr INTHeader
}

// NotificationKind distinguishes anomaly classes.
type NotificationKind uint8

const (
	// NotifyHighLatency reports a telemetry packet over its flow threshold.
	NotifyHighLatency NotificationKind = iota
	// NotifyDrop reports a packet-count mismatch or epoch-ID gap.
	NotifyDrop
)

func (k NotificationKind) String() string {
	if k == NotifyHighLatency {
		return "high-latency"
	}
	return "drop"
}

// Notification is the data plane's trigger message to the control plane.
type Notification struct {
	Kind   NotificationKind
	Switch topology.NodeID
	Flow   FlowID
	Time   netsim.Time
	// Latency is set for high-latency notifications.
	Latency netsim.Time
	// Dropped and EpochGap are set for drop notifications.
	Dropped  int64
	EpochGap uint32
}

// Notifier receives data-plane notifications (the control plane).
type Notifier interface {
	Notify(n Notification)
}
