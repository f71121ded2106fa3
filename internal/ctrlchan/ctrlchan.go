// Package ctrlchan models the control channel between the MARS controller
// and its switches. The paper's deployment speaks P4Runtime over a real
// network, where notifications, Ring Table pulls, and threshold pushes can
// be lost, delayed, reordered, or duplicated; the seed reproduction used
// perfectly reliable direct method calls instead. This package makes the
// channel explicit: every controller↔switch exchange becomes a typed
// Message submitted to a Channel, which delivers it through the
// simulator's event heap under a configurable per-direction fault model
// (loss probability, base latency, jitter, duplication, reordering).
//
// A direction whose fault model is all-zero is "perfect" and delivers
// synchronously, byte-for-byte reproducing the seed repo's direct-call
// behavior — attaching a perfect Channel changes nothing, so the default
// configuration keeps every existing experiment result identical.
//
// The Channel draws randomness from its own seeded source, not the
// simulator's: attaching or degrading the channel never perturbs the
// workload/fault random stream, and two runs with the same seeds are
// exactly reproducible event for event.
package ctrlchan

import (
	"fmt"
	"math/rand"
	"slices"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// Direction identifies which way a message travels.
type Direction uint8

const (
	// ToController is switch → controller (notifications, responses).
	ToController Direction = iota
	// ToSwitch is controller → switch (requests, threshold pushes).
	ToSwitch
)

// Kind enumerates the typed control-channel exchanges.
type Kind uint8

const (
	// KindNotification is a data-plane anomaly trigger (switch → controller).
	KindNotification Kind = iota
	// KindCollectRequest asks an edge switch for its Ring Table (diagnosis).
	KindCollectRequest
	// KindCollectResponse returns the Ring Table snapshot.
	KindCollectResponse
	// KindRefreshRequest is the periodic incremental latency pull; it
	// carries the controller's per-sink watermark so the switch sends only
	// records it has not seen.
	KindRefreshRequest
	// KindRefreshResponse returns the records newer than the watermark.
	KindRefreshResponse
	// KindThresholdPush installs a per-flow dynamic threshold at a switch.
	KindThresholdPush
	// KindThresholdAck confirms a threshold push (switch → controller).
	KindThresholdAck
)

func (k Kind) String() string {
	switch k {
	case KindNotification:
		return "notification"
	case KindCollectRequest:
		return "collect-req"
	case KindCollectResponse:
		return "collect-resp"
	case KindRefreshRequest:
		return "refresh-req"
	case KindRefreshResponse:
		return "refresh-resp"
	case KindThresholdPush:
		return "threshold-push"
	case KindThresholdAck:
		return "threshold-ack"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Wire sizes of the request/ack message types this layer adds. The
// response payloads keep the seed repo's accounting (dataplane.RTRecordBytes
// per collected record, 8 B per refreshed latency, ThresholdPushBytes and
// NotificationBytes unchanged); requests and acks are small fixed-size
// frames counted separately so the Fig. 9 "Diagnosis" bar keeps its
// original definition.
const (
	// CollectRequestBytes is one Ring Table collection request.
	CollectRequestBytes = 16
	// RefreshRequestBytes is one watermark-carrying refresh pull request.
	RefreshRequestBytes = 16
	// AckBytes is one threshold acknowledgement.
	AckBytes = 12
)

// Message is one typed control-channel exchange. Exactly the fields of
// its Kind are meaningful; the rest are zero.
//
// Records and Thresholds are borrowed: the sender's storage, valid for the
// Send call that carries the Message and for the deliver call that receives
// it, and reused after. Whoever keeps either past that call copies it — a
// Channel that delivers after Send returns, a handler that keeps records
// for later — and nobody writes through them.
type Message struct {
	Kind Kind
	// Seq matches responses (and acks) to requests and deduplicates
	// duplicated or reordered deliveries. Every transmission attempt gets
	// a fresh Seq, so a retry is distinguishable from the original.
	Seq uint64
	// Switch is the switch-side endpoint of the exchange.
	Switch topology.NodeID
	// Note is the payload of KindNotification.
	Note dataplane.Notification
	// Records is the payload of collect/refresh responses.
	Records []dataplane.RTRecord
	// Watermark is the refresh request's newest-already-seen arrival time.
	Watermark netsim.Time
	// Thresholds is the payload of a threshold push — every entry the
	// switch has not acknowledged — and of its ack, which echoes the
	// entries it installed.
	Thresholds []Threshold
	// Wire is the message's modelled size in bytes, set by the sender and
	// accounted by it; it does not cross a socket.
	Wire int64
	// Stamp is the sender's clock at snapshot time on collect responses.
	// The in-simulator path leaves it zero (collection there is
	// synchronous); the real-socket deployment mode sets it so the
	// controller can anchor record-recency analysis to the data's own
	// timeline rather than the wall clock.
	Stamp netsim.Time
}

// Threshold is one pushed per-flow dynamic threshold.
type Threshold struct {
	Flow  dataplane.FlowID
	Value netsim.Time
}

// DirConfig is the fault model of one channel direction.
type DirConfig struct {
	// Loss is the probability a message vanishes in transit.
	Loss float64
	// Latency is the base one-way delivery delay.
	Latency netsim.Time
	// Jitter adds a uniform [0, Jitter) extra delay per delivery; two
	// messages sent back to back can therefore arrive reordered.
	Jitter netsim.Time
	// DupProb is the probability a message is delivered twice (the second
	// copy takes an independent delay draw).
	DupProb float64
	// ReorderProb is the probability a message is held back an extra
	// 3×Jitter (a deliberate reordering spike on top of natural jitter).
	ReorderProb float64
}

// perfect reports whether the direction needs no event-heap involvement.
func (d DirConfig) perfect() bool {
	return d.Loss == 0 && d.Latency == 0 && d.Jitter == 0 &&
		d.DupProb == 0 && d.ReorderProb == 0
}

// Config parameterizes both directions plus the channel's random source.
type Config struct {
	ToController DirConfig
	ToSwitch     DirConfig
	// Seed drives the channel's own deterministic randomness.
	Seed int64
}

// Lossy returns a symmetric fault model: the given loss rate both ways,
// 1 ms ± 0.5 ms one-way latency, 1% duplication, and 5% reordering
// spikes — the regime the ctrlchan experiment sweeps.
func Lossy(loss float64, seed int64) Config {
	dir := DirConfig{
		Loss:        loss,
		Latency:     netsim.Millisecond,
		Jitter:      500 * netsim.Microsecond,
		DupProb:     0.01,
		ReorderProb: 0.05,
	}
	return Config{ToController: dir, ToSwitch: dir, Seed: seed}
}

// Channel is the fault-injectable message layer. All methods must be
// called from inside the simulator's event loop (the whole system is
// single-threaded discrete-event code).
type Channel struct {
	Cfg Config

	sim *netsim.Simulator
	rng *rand.Rand
}

// New attaches a channel to a simulator. The zero Config is a perfect
// channel: synchronous, lossless, byte-identical to direct calls.
func New(sim *netsim.Simulator, cfg Config) *Channel {
	return &Channel{Cfg: cfg, sim: sim, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// dir returns the fault model of a direction.
func (ch *Channel) dir(d Direction) *DirConfig {
	if d == ToController {
		return &ch.Cfg.ToController
	}
	return &ch.Cfg.ToSwitch
}

// SetLoss adjusts one direction's loss probability at runtime (the
// control-channel degradation fault injector's knob).
func (ch *Channel) SetLoss(d Direction, p float64) {
	ch.dir(d).Loss = p
}

// Loss returns one direction's current loss probability (the value a
// revert must restore when degradation windows overlap).
func (ch *Channel) Loss(d Direction) float64 {
	return ch.dir(d).Loss
}

// Send submits a message in direction d; deliver runs when (and if) the
// message arrives. A perfect direction delivers synchronously before Send
// returns, lending m's slices on as they are; otherwise delivery is
// scheduled on the event heap after the drawn delay, may happen twice
// (duplication), may never happen (loss), and later Sends can overtake
// earlier ones (jitter/reorder). A delivery the channel holds past Send
// carries its own copy of m's slices, shared by a duplicate.
func (ch *Channel) Send(d Direction, m Message, deliver func(Message)) {
	cfg := ch.dir(d)
	if cfg.perfect() {
		deliver(m)
		return
	}
	if cfg.Loss > 0 && ch.rng.Float64() < cfg.Loss {
		return
	}
	m.Records, m.Thresholds = slices.Clone(m.Records), slices.Clone(m.Thresholds)
	ch.scheduleDelivery(cfg, m, deliver)
	if cfg.DupProb > 0 && ch.rng.Float64() < cfg.DupProb {
		ch.scheduleDelivery(cfg, m, deliver)
	}
}

// scheduleDelivery queues one delivery with an independent delay draw.
func (ch *Channel) scheduleDelivery(cfg *DirConfig, m Message, deliver func(Message)) {
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += netsim.Time(ch.rng.Int63n(int64(cfg.Jitter)))
	}
	if cfg.ReorderProb > 0 && ch.rng.Float64() < cfg.ReorderProb {
		delay += 3 * cfg.Jitter
	}
	ch.sim.After(delay, func() { deliver(m) })
}
