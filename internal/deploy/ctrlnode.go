package deploy

import (
	"net"
	"time"

	"mars/internal/controlplane"
	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/rca"
	"mars/internal/rtclock"
	"mars/internal/stream"
	"mars/internal/topology"
)

// ControllerNode is the controller process: the unmodified
// controlplane.Controller running on a wall-clock loop over a UDP
// transport, feeding the same RCA analyzer the simulator uses — and,
// optionally, the streaming diagnosis service.
type ControllerNode struct {
	cap  *Capture
	loop *rtclock.Loop
	tr   *ctrlchan.UDPTransport
	ctrl *controlplane.Controller
	rca  *rca.Analyzer

	// currentThr holds the matched captured diagnosis's threshold map for
	// the duration of one Analyze call (set and read on the loop goroutine).
	currentThr map[dataplane.FlowID]netsim.Time

	merged    rca.Merger
	diagnoses []controlplane.Diagnosis

	// noteSeen records the wall time each distinct trigger first reached
	// this process (a retransmission carries the same Notification);
	// collectLat accumulates trigger→finalized-diagnosis wall latencies —
	// a real socket round to every edge switch, retries included. Both
	// loop-owned.
	noteSeen   map[dataplane.Notification]netsim.Time
	collectLat []netsim.Time

	// notes counts the capture's distinct notifications, overdue is the
	// loop time the last of them is a ResponseWindow late, and settled
	// closes once the run has done its work (see settle). started is the
	// wall time Start ran, which WaitSettled's backstop counts from.
	notes     int
	overdue   netsim.Time
	isSettled bool
	settled   chan struct{}
	started   time.Time

	// Stream, when non-nil, additionally ingests every collected record
	// into the streaming diagnosis service (set before Start).
	Stream *stream.Service

	// OnDiagnosis, if set, observes each diagnosis on the loop goroutine.
	OnDiagnosis func(controlplane.Diagnosis, []rca.Culprit)
}

// NewControllerNode binds the controller to a socket. switchAddrs maps
// every switch ID to its hosting process.
func NewControllerNode(cap *Capture, conn *net.UDPConn, switchAddrs map[topology.NodeID]*net.UDPAddr) *ControllerNode {
	n := &ControllerNode{cap: cap, loop: rtclock.New(), noteSeen: make(map[dataplane.Notification]netsim.Time), settled: make(chan struct{})}
	distinct := make(map[dataplane.Notification]bool, len(cap.Notes))
	for _, tn := range cap.Notes {
		distinct[tn.Note] = true
	}
	n.notes = len(distinct)
	n.tr = ctrlchan.NewUDP(conn, ctrlchan.UDPConfig{
		Switches: switchAddrs,
		LossProb: cap.Scenario.LossProb,
		Seed:     cap.Scenario.Seed + 200,
	}, newInbox(n.loop, func(m ctrlchan.Message) {
		if m.Kind == ctrlchan.KindNotification {
			if _, ok := n.noteSeen[m.Note]; !ok {
				n.noteSeen[m.Note] = n.loop.Now()
			}
		}
		n.ctrl.Deliver(m)
		if m.Kind == ctrlchan.KindNotification {
			n.settle()
		}
	}, func(m ctrlchan.Message) { n.tr.Release(m) }).deliver)

	cfg := scaledControllerConfig(cap.Scenario)
	n.ctrl = controlplane.New(cfg, n.loop, cap.Sys.FT.Topology, n.tr)

	// RCA consults the thresholds the simulator had derived at the matched
	// capture's moment, so abnormality classification sees the data plane's
	// own timeline, not the wall clock's partially-warmed reservoirs.
	n.rca = rca.New(cap.Sys.Analyzer.Cfg, cap.Sys.Paths, rca.ThresholdFunc(func(f dataplane.FlowID) netsim.Time {
		if th, ok := n.currentThr[f]; ok {
			return th
		}
		return n.ctrl.ThresholdOf(f)
	}))

	n.ctrl.OnDiagnosis = func(d controlplane.Diagnosis) {
		defer n.settle()
		// Re-anchor to the collected data's own timeline: d.Time is wall
		// nanoseconds, but the records' arrivals (and RCA's recency
		// window) live on the sim timeline the snapshots carry in AsOf.
		if d.AsOf != 0 {
			d.Time = d.AsOf
		}
		if i := cap.matchDiag(d.Trigger); i >= 0 {
			n.currentThr = cap.Diags[i].Thresholds
		}
		list := n.rca.Analyze(d)
		n.currentThr = nil
		if at, ok := n.noteSeen[d.Trigger]; ok {
			n.collectLat = append(n.collectLat, n.loop.Now()-at)
		}
		n.diagnoses = append(n.diagnoses, d)
		n.merged.Add(list)
		if n.Stream != nil {
			for _, r := range d.Records {
				n.Stream.Ingest(r)
			}
		}
		if n.OnDiagnosis != nil {
			n.OnDiagnosis(d, list)
		}
	}
	return n
}

// Start launches the controller's periodic refresh loop on the wall
// clock, and arms the check at the instant the capture's last notification
// is a ResponseWindow overdue. Call once every process is listening.
func (n *ControllerNode) Start() {
	n.started = time.Now() //mars:wallclock the backstop of the deployment's live phase
	n.loop.Post(func() {
		var last netsim.Time
		if k := len(n.cap.Notes); k > 0 {
			last = n.cap.Notes[k-1].At
		}
		n.overdue = n.loop.Now() + netsim.Time(float64(last)*n.cap.Scenario.Scale) + n.ctrl.Cfg.ResponseWindow
		n.loop.At(n.overdue, n.settle)
		n.ctrl.Start()
	})
}

// settle closes settled once the run has done all of its work: every
// notification of the capture has reached this node, or the last one is a
// ResponseWindow overdue (a switch group is down, or the channel lost it),
// and the controller is Quiet. The controller answers a notification with
// one collection per response window, so nothing finalizes after that. It
// runs on the loop after each notification, each diagnosis, and at the
// overdue instant.
func (n *ControllerNode) settle() {
	if n.isSettled || !n.ctrl.Quiet() || (len(n.noteSeen) < n.notes && n.loop.Now() < n.overdue) {
		return
	}
	n.isSettled = true
	close(n.settled)
}

// Result judges the run as the controller saw it after wallSeconds of
// live phase: the merged ranking against the capture's, and the collection
// counts, latencies and bytes behind it. What only the switch nodes can
// count — NotesSent and the four switch-side byte counters — is AddSwitch's
// to fold in.
func (n *ControllerNode) Result(wallSeconds float64) *LoopbackResult {
	res := &LoopbackResult{Expected: n.cap.Expected, WallSeconds: wallSeconds}
	n.loop.Run(func() {
		res.Got = n.merged.Ranked()
		res.Diagnoses = len(n.diagnoses)
		res.CollectLatencies = append(res.CollectLatencies, n.collectLat...)
		res.Bytes = n.ctrl.Bytes
	})
	res.Top1Match = len(res.Expected) > 0 && len(res.Got) > 0 &&
		Top1Key(res.Expected[0]) == Top1Key(res.Got[0])
	return res
}

// FinishStream seals the attached streaming service's tail windows and
// reports (closed windows, merged culprits). No-op (0, 0) when no
// service is attached.
func (n *ControllerNode) FinishStream() (windows, culprits int) {
	n.loop.Run(func() {
		if n.Stream == nil {
			return
		}
		n.Stream.Finish()
		windows = len(n.Stream.Results())
		culprits = len(n.Stream.Merged())
	})
	return windows, culprits
}

// Stats exposes the node's transport counters.
func (n *ControllerNode) Stats() *ctrlchan.UDPStats { return n.tr.Stats() }

// Stop tears the node down: transport first, then the loop.
func (n *ControllerNode) Stop() {
	n.tr.Close()
	n.loop.Stop()
}
