package deploy

import (
	"net"
	"sort"

	"mars/internal/controlplane"
	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/rtclock"
	"mars/internal/topology"
)

// replayRegisters is the deployment's controlplane.Registers: the capture's
// per-sink cuts, read at a wall clock (now, nanoseconds since the node
// started) scaled back onto the sim timeline. Everything it answers is a
// window of storage Build cut once, never written again.
type replayRegisters struct {
	cap *Capture
	now func() netsim.Time
}

// Snapshot serves a diagnosis pull: the trigger selects the captured
// diagnosis, and sw's slice of it is stamped with the capture's sim time.
func (r *replayRegisters) Snapshot(sw topology.NodeID, trigger dataplane.Notification) ([]dataplane.RTRecord, netsim.Time) {
	i := r.cap.matchDiag(trigger)
	cut := r.cap.sinks[sw]
	if i < 0 || cut == nil {
		return nil, 0
	}
	return cut.snaps[i], r.cap.Diags[i].Time
}

// Arrived serves a refresh pull: the records of sw's log past the
// watermark that have "arrived" by the current sim time (clamped to the
// captured run).
func (r *replayRegisters) Arrived(sw topology.NodeID, after netsim.Time) []dataplane.RTRecord {
	sc := r.cap.Scenario
	simNow := netsim.Time(float64(r.now()) / sc.Scale)
	if simNow > sc.RunFor {
		simNow = sc.RunFor
	}
	cut := r.cap.sinks[sw]
	if cut == nil {
		return nil
	}
	log := cut.log
	lo := sort.Search(len(log), func(i int) bool { return log[i].Arrival > after })
	hi := sort.Search(len(log), func(i int) bool { return log[i].Arrival > simNow })
	if lo >= hi {
		return nil
	}
	return log[lo:hi:hi]
}

// SetThreshold accepts a pushed entry; a replayed data plane has no register for it.
func (r *replayRegisters) SetThreshold(topology.NodeID, dataplane.FlowID, netsim.Time) {}

// SwitchNode is one switch-group process: it replays its switches'
// captured notifications at scaled wall offsets through the simulator's
// controlplane.Agent, which answers the controller's requests for the
// switches it hosts from replayRegisters. All state is owned by a single
// rtclock loop — the same single-threaded discipline the simulator enforces.
type SwitchNode struct {
	cap    *Capture
	hosted map[topology.NodeID]bool
	loop   *rtclock.Loop
	tr     *ctrlchan.UDPTransport
	regs   *replayRegisters
	agent  *controlplane.Agent

	// bytes is the agent's accounting, notesSent the replayed
	// notifications, pushes the threshold push frames answered. Loop-owned:
	// read them through Counts.
	bytes     controlplane.BandwidthStats
	notesSent int
	pushes    int
}

// Counts returns, from one turn of the loop, the notifications replayed,
// the threshold push frames answered and the four switch-side byte
// counters the node's agent keeps; callable from any goroutine.
func (s *SwitchNode) Counts() (notes, pushes int, bytes controlplane.BandwidthStats) {
	s.loop.Run(func() { notes, pushes, bytes = s.notesSent, s.pushes, s.bytes })
	return notes, pushes, bytes
}

// NewSwitchNode binds a switch-group agent to a socket. switches lists
// the hosted switch IDs; controller is the controller process's address.
func NewSwitchNode(cap *Capture, switches []topology.NodeID, conn *net.UDPConn, controller *net.UDPAddr) *SwitchNode {
	s := &SwitchNode{cap: cap, hosted: make(map[topology.NodeID]bool, len(switches)), loop: rtclock.New()}
	for _, sw := range switches {
		s.hosted[sw] = true
	}
	s.regs = &replayRegisters{cap: cap, now: s.loop.Now}
	in := newInbox(s.loop, func(m ctrlchan.Message) {
		if s.hosted[m.Switch] { // else misrouted: the controller's retries own it
			if m.Kind == ctrlchan.KindThresholdPush {
				s.pushes++
			}
			s.agent.Deliver(m)
		}
	}, func(m ctrlchan.Message) { s.tr.Release(m) })
	s.tr = ctrlchan.NewUDP(conn, ctrlchan.UDPConfig{
		Controller: controller,
		LossProb:   cap.Scenario.LossProb,
		Seed:       cap.Scenario.Seed + 100, // distinct stream per role
	}, in.deliver)
	s.agent = controlplane.NewAgent(s.regs, s.tr, &s.bytes, nil)
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
			s.loop.After(netsim.Time(float64(tn.At)*s.cap.Scenario.Scale), func() {
				s.notesSent++
				s.agent.Notify(note)
			})
		}
	})
}

// Stats exposes the node's transport counters.
func (s *SwitchNode) Stats() *ctrlchan.UDPStats { return s.tr.Stats() }

// Stop tears the node down: transport first (no new posts), then the
// loop.
func (s *SwitchNode) Stop() {
	s.tr.Close()
	s.loop.Stop()
}
