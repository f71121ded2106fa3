package deploy

import (
	"fmt"
	"net"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/rtclock"
	"mars/internal/topology"
)

// SwitchNode is one switch-group process: it replays its switches'
// captured notifications onto the wire at scaled wall offsets and answers
// the controller's collect, refresh, and threshold-push requests from the
// captured telemetry. All state is owned by a single rtclock loop — the
// same single-threaded discipline the simulator enforces.
type SwitchNode struct {
	cap      *Capture
	switches []topology.NodeID
	hosted   map[topology.NodeID]bool
	loop     *rtclock.Loop
	tr       *ctrlchan.UDPTransport

	// logs holds each hosted sink's cumulative record history.
	logs map[topology.NodeID][]dataplane.RTRecord
	// thresholds tracks pushed per-switch per-flow thresholds (the
	// deployment's observable effect of the push path).
	thresholds map[string]netsim.Time
	nextSeq    uint64

	// thresholdPushes counts accepted pushes; notesSent counts replayed
	// notifications. Loop-owned: read them through Counts.
	thresholdPushes int
	notesSent       int
}

// Counts returns (notifications replayed, threshold pushes accepted),
// synchronized through the loop; callable from any goroutine.
func (s *SwitchNode) Counts() (notes, pushes int) {
	s.loop.Run(func() { notes, pushes = s.notesSent, s.thresholdPushes })
	return notes, pushes
}

// NewSwitchNode binds a switch-group agent to a socket. switches lists
// the hosted switch IDs; controller is the controller process's address.
func NewSwitchNode(cap *Capture, switches []topology.NodeID, conn *net.UDPConn, controller *net.UDPAddr) *SwitchNode {
	s := &SwitchNode{
		cap:        cap,
		switches:   switches,
		hosted:     make(map[topology.NodeID]bool, len(switches)),
		loop:       rtclock.New(),
		logs:       make(map[topology.NodeID][]dataplane.RTRecord),
		thresholds: make(map[string]netsim.Time),
	}
	for _, sw := range switches {
		s.hosted[sw] = true
		s.logs[sw] = cap.recordLog(sw)
	}
	s.tr = ctrlchan.NewUDP(conn, ctrlchan.UDPConfig{
		Controller: controller,
		LossProb:   cap.Scenario.LossProb,
		Seed:       cap.Scenario.Seed + 100, // distinct stream per role
	}, func(m ctrlchan.Message) { s.loop.Post(func() { s.handle(m) }) })
	return s
}

// Start begins the notification replay: each captured note raised by a
// hosted switch is scheduled at its scaled wall offset. Call once, after
// every process is listening.
func (s *SwitchNode) Start() {
	s.loop.Post(func() {
		for _, tn := range s.cap.Notes {
			if !s.hosted[tn.Note.Switch] {
				continue
			}
			note := tn.Note
			s.loop.After(s.wallOffset(tn.At), func() { s.sendNote(note) })
		}
	})
}

// wallOffset maps a sim time to a wall offset on this node's clock.
func (s *SwitchNode) wallOffset(at netsim.Time) netsim.Time {
	return netsim.Time(float64(at) * s.cap.Scenario.Scale)
}

// simNow maps the node's wall clock back to the sim timeline (clamped to
// the captured run).
func (s *SwitchNode) simNow() netsim.Time {
	t := netsim.Time(float64(s.loop.Now()) / s.cap.Scenario.Scale)
	if t > s.cap.Scenario.RunFor {
		t = s.cap.Scenario.RunFor
	}
	return t
}

func (s *SwitchNode) seq() uint64 {
	s.nextSeq++
	return s.nextSeq
}

// sendNote replays one notification to the controller.
func (s *SwitchNode) sendNote(n dataplane.Notification) {
	s.notesSent++
	s.tr.Send(ctrlchan.ToController, ctrlchan.Message{
		Kind: ctrlchan.KindNotification, Seq: s.seq(), Switch: n.Switch,
		Note: n, Wire: dataplane.NotificationBytes,
	}, nil)
}

// handle answers one controller request on the loop goroutine.
func (s *SwitchNode) handle(m ctrlchan.Message) {
	if !s.hosted[m.Switch] {
		return // misrouted: ignore, the controller's retry machinery owns it
	}
	//mars:partial only controller->switch request kinds arrive at an agent; the other kinds travel switch->controller
	switch m.Kind {
	case ctrlchan.KindCollectRequest:
		s.onCollect(m)
	case ctrlchan.KindRefreshRequest:
		s.onRefresh(m)
	case ctrlchan.KindThresholdPush:
		s.thresholds[fmt.Sprintf("s%d/f%d-%d", m.Switch, m.Flow.Src, m.Flow.Sink)] = m.Threshold
		s.thresholdPushes++
		s.tr.Send(ctrlchan.ToController, ctrlchan.Message{
			Kind: ctrlchan.KindThresholdAck, Seq: m.Seq, Switch: m.Switch,
			Flow: m.Flow, Threshold: m.Threshold, Wire: ctrlchan.AckBytes,
		}, nil)
	}
}

// onCollect serves a diagnosis pull: the request carries its trigger
// notification, which selects the captured diagnosis snapshot; the
// response carries this switch's slice of it, stamped with the snapshot's
// sim time.
func (s *SwitchNode) onCollect(m ctrlchan.Message) {
	var recs []dataplane.RTRecord
	var stamp netsim.Time
	if d := s.cap.matchDiag(m.Note); d != nil {
		stamp = d.Time
		for _, r := range d.Records {
			if r.Flow.Sink == m.Switch {
				recs = append(recs, r)
			}
		}
	}
	s.tr.Send(ctrlchan.ToController, ctrlchan.Message{
		Kind: ctrlchan.KindCollectResponse, Seq: m.Seq, Switch: m.Switch,
		Records: recs, Stamp: stamp,
		Wire: int64(len(recs)) * dataplane.RTRecordBytes,
	}, nil)
}

// onRefresh serves an incremental latency pull from the captured record
// log: records that have "arrived" by the current (scaled) sim time and
// are newer than the controller's watermark.
func (s *SwitchNode) onRefresh(m ctrlchan.Message) {
	now := s.simNow()
	var recs []dataplane.RTRecord
	for _, r := range s.logs[m.Switch] {
		if r.Arrival > m.Watermark && r.Arrival <= now {
			recs = append(recs, r)
		}
	}
	s.tr.Send(ctrlchan.ToController, ctrlchan.Message{
		Kind: ctrlchan.KindRefreshResponse, Seq: m.Seq, Switch: m.Switch,
		Records: recs, Stamp: now, Wire: int64(len(recs)) * 8,
	}, nil)
}

// Stats exposes the node's transport counters.
func (s *SwitchNode) Stats() *ctrlchan.UDPStats { return s.tr.Stats() }

// Stop tears the node down: transport first (no new posts), then the
// loop.
func (s *SwitchNode) Stop() {
	s.tr.Close()
	s.loop.Stop()
}
