package controlplane

import (
	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// Registers is what an Agent reads and writes of its switches' state: the
// seam between the switch-side half of the protocol and where the registers
// live (LiveRegisters here, a replayed capture in internal/deploy). The
// record slices it returns are read-only and borrowed: they hold until its
// next read, and a response lends them on as they are, so whoever keeps
// them past the delivery copies them.
type Registers interface {
	// Snapshot returns the Ring Table sw hands the collection raised by
	// trigger, and the moment on the data plane's timeline it is current as
	// of (zero when the collector's clock is already the data's).
	Snapshot(sw topology.NodeID, trigger dataplane.Notification) ([]dataplane.RTRecord, netsim.Time)
	// Arrived returns the records that have reached sw's Ring Table after
	// the watermark after, oldest-first: what a refresh pull is sent.
	Arrived(sw topology.NodeID, after netsim.Time) []dataplane.RTRecord
	// SetThreshold installs a pushed per-flow dynamic threshold at sw.
	SetThreshold(sw topology.NodeID, flow dataplane.FlowID, th netsim.Time)
}

// LiveRegisters is a running Program as Registers. Every read copies out of
// the ring, which keeps being overwritten, into one slice that the next read
// reuses. Collection is synchronous with the data plane, so a snapshot needs
// no stamp.
type LiveRegisters struct {
	*dataplane.Program
	records []dataplane.RTRecord
}

func (l *LiveRegisters) Snapshot(sw topology.NodeID, _ dataplane.Notification) ([]dataplane.RTRecord, netsim.Time) {
	l.records = l.RTSnapshot(l.records[:0], sw)
	return l.records, 0
}

func (l *LiveRegisters) Arrived(sw topology.NodeID, after netsim.Time) []dataplane.RTRecord {
	l.records = l.RTSince(l.records[:0], sw, after)
	return l.records
}

// refreshSampleBytes is one compressed latency sample on the refresh wire.
const refreshSampleBytes = 8

// Agent is the switch-side endpoint of the control channel for a set of
// switches — in the paper, each switch's P4Runtime server. It raises the
// data plane's notifications and answers collections, refresh pulls and
// threshold pushes from its Registers. It holds no reliability state: a
// lost request or response is the controller's to retry.
type Agent struct {
	regs    Registers
	tr      ctrlchan.Transport
	bytes   *BandwidthStats
	up      func(ctrlchan.Message)
	nextSeq uint64
}

// NewAgent builds the agent for the switches behind regs. bytes receives
// the four switch-side counters; a collected record costs
// dataplane.RTRecordBytes under every codec. up is the controller end's
// in-process delivery hook (Controller.Deliver), nil when tr crosses a
// process boundary.
func NewAgent(regs Registers, tr ctrlchan.Transport, bytes *BandwidthStats, up func(ctrlchan.Message)) *Agent {
	return &Agent{regs: regs, tr: tr, bytes: bytes, up: up}
}

// send counts m's modelled size as it is put on the channel, so an exchange
// the controller retries costs its true repeated bytes.
func (a *Agent) send(counter *int64, m ctrlchan.Message) {
	*counter += m.Wire
	a.tr.Send(ctrlchan.ToController, m, a.up)
}

// Notify implements dataplane.Notifier at the notifying switch. The
// sequence is the agent's own; the controller deduplicates on (switch, seq).
func (a *Agent) Notify(n dataplane.Notification) {
	a.nextSeq++
	a.send(&a.bytes.NotificationBytes, ctrlchan.Message{
		Kind: ctrlchan.KindNotification, Seq: a.nextSeq, Switch: n.Switch,
		Note: n, Wire: dataplane.NotificationBytes,
	})
}

// Deliver answers one controller → switch message under the request's Seq.
// m is borrowed for the call (an ack echoes m.Thresholds as it is sent), and
// a response lends the records its Registers returned, which the next
// request may overwrite.
func (a *Agent) Deliver(m ctrlchan.Message) {
	//mars:partial only controller->switch request kinds arrive at an agent; responses, acks, and notifications travel the other direction and are handled by Controller.Deliver
	switch m.Kind {
	case ctrlchan.KindCollectRequest:
		recs, stamp := a.regs.Snapshot(m.Switch, m.Note)
		a.send(&a.bytes.CollectionBytes, ctrlchan.Message{
			Kind: ctrlchan.KindCollectResponse, Seq: m.Seq, Switch: m.Switch,
			Records: recs, Stamp: stamp, Wire: int64(len(recs)) * dataplane.RTRecordBytes,
		})
	case ctrlchan.KindRefreshRequest:
		recs := a.regs.Arrived(m.Switch, m.Watermark)
		a.send(&a.bytes.RefreshBytes, ctrlchan.Message{
			Kind: ctrlchan.KindRefreshResponse, Seq: m.Seq, Switch: m.Switch,
			Records: recs, Wire: int64(len(recs)) * refreshSampleBytes,
		})
	case ctrlchan.KindThresholdPush:
		for _, e := range m.Thresholds {
			a.regs.SetThreshold(m.Switch, e.Flow, e.Value)
		}
		a.send(&a.bytes.AckBytes, ctrlchan.Message{
			Kind: ctrlchan.KindThresholdAck, Seq: m.Seq, Switch: m.Switch,
			Thresholds: m.Thresholds, Wire: ctrlchan.AckBytes,
		})
	}
}
