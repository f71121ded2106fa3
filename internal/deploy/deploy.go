// Package deploy runs MARS as real OS processes: each switch group and
// the controller live in their own process and exchange control-plane
// traffic over real UDP sockets (cmd/mars-node is the entry point; this
// package is the machinery).
//
// # The replay-replica design
//
// The repository's data plane is a deterministic discrete-event
// simulation, and determinism is the property every experiment and pinned
// digest rests on. Deployment mode therefore does not fake a packet
// data plane across processes; it splits the system along the seam the
// paper itself draws — the control channel:
//
//   - Data plane: every process runs the identical seeded simulation
//     locally (same Scenario ⇒ byte-identical event history in every
//     replica) and extracts only its own slice of the resulting telemetry:
//     which notifications its switches raised and at what sim time, what
//     each Ring Table held when a diagnosis collected it, and what dynamic
//     thresholds the sim controller had derived at that moment.
//   - Control plane: genuinely real, and the simulator's own at both ends.
//     Switch processes replay their notifications at scaled wall-clock
//     offsets through a controlplane.Agent that answers from the capture;
//     the controller process runs the unmodified controlplane.Controller
//     (timeouts, capped backoff, retry budget, dedup) against real
//     sockets and feeds the same RCA analyzer.
//
// A run succeeds when the multi-process diagnosis reproduces the
// simulator's top-1 culprit: the control plane that produced it was real,
// and the telemetry it collected crossed real sockets.
//
// Sim-time anchoring: the controller's clock in this mode is the wall
// clock, but Ring Table records carry sim-time arrivals. Collect and
// refresh responses therefore carry a Stamp (the snapshot's sim time),
// which the controller folds into Diagnosis.AsOf; the ControllerNode
// re-anchors each diagnosis to AsOf before analysis so RCA's recency
// window sees one consistent timeline.
package deploy

import (
	"fmt"
	"sort"

	"mars"
	"mars/internal/controlplane"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/rca"
	"mars/internal/topology"
)

// Scenario is the complete, JSON-serializable description of one
// deployment run: the trial scenario plus how the deployment replays it.
// Every process derives its replay data from the same Scenario, so
// nothing but this struct and the port map crosses process boundaries out
// of band.
type Scenario struct {
	mars.Scenario
	// Scale maps sim time to wall time: wall = sim × Scale. 1 replays in
	// real time; 0.25 replays 4 sim-seconds in one wall second. The
	// controller's timing knobs scale with it so the protocol keeps its
	// shape.
	Scale float64 `json:"scale"`
	// LossProb injects seeded outbound fragment loss at every transport,
	// exercising the retry machinery on an otherwise reliable loopback.
	LossProb float64 `json:"loss_prob,omitempty"`
	// Groups is how many switch processes host the topology's switches.
	Groups int `json:"groups"`
}

// DefaultScenario is the CI smoke run: the default trial with the gray
// experiment's silent-drop injection at seed 1000, replayed at 4×
// compression across 4 switch processes.
func DefaultScenario() Scenario {
	return Scenario{Scenario: mars.DefaultScenario(1000, mars.FaultSilentDrop), Scale: 0.25, Groups: 4}
}

// CapturedDiag is one simulator diagnosis, captured with everything the
// deployment needs to reproduce its analysis: the trigger identity, the
// collected records, the collection's sim time, and the dynamic
// thresholds the sim controller held for the involved flows at that
// moment.
type CapturedDiag struct {
	Trigger    dataplane.Notification
	Records    []dataplane.RTRecord
	Time       netsim.Time
	Thresholds map[dataplane.FlowID]netsim.Time
}

// TimedNote is one switch notification with its sim-time offset.
type TimedNote struct {
	Note dataplane.Notification
	At   netsim.Time
}

// Capture is the deterministic replay data one process derives from a
// Scenario by running the simulation locally.
type Capture struct {
	Scenario Scenario
	// Notes are all notifications raised by the data plane, in emission
	// order (each process replays only its own switches' entries).
	Notes []TimedNote
	// Diags are the simulator's diagnoses in collection order.
	Diags []CapturedDiag
	// Expected is the simulator's System.Culprits(), the "every diagnosis
	// merged" fold — the ranking a deployment run must reproduce at rank 1.
	Expected []rca.Culprit
	// Sys is the simulated system the capture ran on (topology, program,
	// PathID table — everything the real controller and agents rewire).
	Sys *mars.System

	// sinks is each sink switch's share of Diags, cut once by Build; a
	// copied Capture shares it.
	sinks map[topology.NodeID]*sinkCut
}

// sinkCut is what a sink switch's replayed registers answer from: its
// cumulative record log (recordLog) and its slice of every captured
// diagnosis, indexed like Diags (nil where it held no record).
type sinkCut struct {
	log   []dataplane.RTRecord
	snaps [][]dataplane.RTRecord
}

// Build runs the Scenario's simulation to completion and extracts the
// replay capture. Deterministic: every process calls this with the same
// Scenario and derives an identical capture.
func Build(sc Scenario) (*Capture, error) {
	switch {
	case sc.Scale <= 0:
		return nil, fmt.Errorf("deploy: scenario \"scale\" must be positive, got %v", sc.Scale)
	case sc.Flows < 0:
		return nil, fmt.Errorf("deploy: scenario \"flows\" must not be negative, got %d", sc.Flows)
	case sc.Flows > 0 && sc.RatePPS <= 0:
		return nil, fmt.Errorf("deploy: scenario \"rate_pps\" must be positive with %d flows, got %v", sc.Flows, sc.RatePPS)
	}
	sys, err := mars.NewSystem(sc.Config())
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	cap := &Capture{Scenario: sc, Sys: sys}

	// Tee every data-plane notification (with its sim time) while still
	// delivering it to the sim controller unchanged.
	inner := sys.Program.Notifier
	sys.Program.Notifier = notifierFunc(func(n dataplane.Notification) {
		cap.Notes = append(cap.Notes, TimedNote{Note: n, At: sys.Sim.Now()})
		inner.Notify(n)
	})

	// Capture each diagnosis with the thresholds RCA will consult for it.
	sys.OnDiagnosis = func(d mars.Diagnosis, _ []mars.Culprit) {
		cd := CapturedDiag{
			Trigger:    d.Trigger,
			Records:    d.Records,
			Time:       d.Time,
			Thresholds: make(map[dataplane.FlowID]netsim.Time),
		}
		record := func(f dataplane.FlowID) {
			if _, ok := cd.Thresholds[f]; !ok {
				cd.Thresholds[f] = sys.Controller.ThresholdOf(f)
			}
		}
		record(d.Trigger.Flow)
		for _, r := range d.Records {
			record(r.Flow)
		}
		cap.Diags = append(cap.Diags, cd)
	}

	sys.StartBackground(sc.Flows, sc.RatePPS)
	sys.InjectSchedule(mars.Schedule{Injections: []mars.Injection{
		{Kind: sc.Fault, Start: sc.FaultStart, Dur: sc.FaultDur},
	}})
	sys.Run(sc.RunFor)
	cap.Expected = sys.Culprits()
	cap.sinks = make(map[topology.NodeID]*sinkCut)
	for _, sw := range sys.FT.EdgeIDs {
		log := cap.recordLog(sw)
		if len(log) == 0 {
			continue // it held no record in any diagnosis either
		}
		cut := &sinkCut{log: log, snaps: make([][]dataplane.RTRecord, len(cap.Diags))}
		for i := range cap.Diags {
			cut.snaps[i] = sinkRecords(cap.Diags[i].Records, sw)
		}
		cap.sinks[sw] = cut
	}
	return cap, nil
}

// notifierFunc adapts a function to dataplane.Notifier.
type notifierFunc func(dataplane.Notification)

func (f notifierFunc) Notify(n dataplane.Notification) { f(n) }

// matchDiag finds the index in Diags of the captured diagnosis for a
// trigger: the exact trigger if the controller picked the same one the
// simulator did, else the nearest capture by trigger time (real-clock
// jitter can make the deployment's response window retain a different
// in-window notification than the simulator's did). -1 when nothing was
// captured.
func (c *Capture) matchDiag(n dataplane.Notification) int {
	best := -1
	for i := range c.Diags {
		t := &c.Diags[i].Trigger
		if t.Kind == n.Kind && t.Switch == n.Switch && t.Flow == n.Flow && t.Time == n.Time {
			return i
		}
		if best < 0 || absTime(c.Diags[i].Trigger.Time-n.Time) < absTime(c.Diags[best].Trigger.Time-n.Time) {
			best = i
		}
	}
	return best
}

func absTime(t netsim.Time) netsim.Time {
	if t < 0 {
		return -t
	}
	return t
}

// recordLog builds a sink switch's cumulative record history from the
// captured diagnoses: every record the simulator ever collected at sw,
// deduplicated and ordered by arrival. Refresh pulls serve from this log
// (records with Arrival inside the pull's watermark window), feeding the
// deployment controller's reservoirs real traffic without re-running the
// data plane per request.
func (c *Capture) recordLog(sw topology.NodeID) []dataplane.RTRecord {
	type key struct {
		flow    dataplane.FlowID
		epoch   uint32
		arrival netsim.Time
	}
	seen := make(map[key]bool)
	var log []dataplane.RTRecord
	for i := range c.Diags {
		for _, r := range c.Diags[i].Records {
			if r.Flow.Sink != sw {
				continue
			}
			k := key{flow: r.Flow, epoch: r.Epoch, arrival: r.Arrival}
			if seen[k] {
				continue
			}
			seen[k] = true
			log = append(log, r)
		}
	}
	sort.Slice(log, func(i, j int) bool {
		if log[i].Arrival != log[j].Arrival {
			return log[i].Arrival < log[j].Arrival
		}
		if log[i].Flow.Src != log[j].Flow.Src {
			return log[i].Flow.Src < log[j].Flow.Src
		}
		return log[i].Epoch < log[j].Epoch
	})
	return log
}

// sinkRecords copies the records of recs that sink sw collected, in order,
// into a slice of exactly their number; nil when there are none.
func sinkRecords(recs []dataplane.RTRecord, sw topology.NodeID) []dataplane.RTRecord {
	n := 0
	for i := range recs {
		if recs[i].Flow.Sink == sw {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]dataplane.RTRecord, 0, n)
	for _, rec := range recs {
		if rec.Flow.Sink == sw {
			out = append(out, rec)
		}
	}
	return out
}

// GroupSwitches partitions the fat tree's switches into n process groups:
// group g hosts pod g's aggregation and edge switches (for n ≤ pods), and
// core switches are dealt round-robin so every switch — including cores,
// which receive threshold pushes — is routable. n beyond the pod count is
// clamped; n ≤ 0 means one group.
func GroupSwitches(ft *topology.FatTree, n int) [][]topology.NodeID {
	if n <= 0 {
		n = 1
	}
	if n > ft.K {
		n = ft.K
	}
	groups := make([][]topology.NodeID, n)
	for _, sw := range append(append([]topology.NodeID{}, ft.EdgeIDs...), ft.AggIDs...) {
		g := ft.PodOf(sw) % n
		groups[g] = append(groups[g], sw)
	}
	for i, sw := range ft.CoreIDs {
		groups[i%n] = append(groups[i%n], sw)
	}
	return groups
}

// scaledControllerConfig compresses the controller's wall-time knobs by
// the scenario's Scale so the protocol's shape (how many refresh rounds
// and response windows fit in the run) is preserved under time
// compression.
func scaledControllerConfig(sc Scenario) controlplane.Config {
	cfg := controlplane.DefaultConfig()
	cfg.Seed = sc.Seed
	scale := func(t netsim.Time) netsim.Time {
		return netsim.Time(float64(t) * sc.Scale)
	}
	cfg.RefreshPeriod = scale(cfg.RefreshPeriod)
	cfg.ResponseWindow = scale(cfg.ResponseWindow)
	cfg.RequestTimeout = scale(cfg.RequestTimeout)
	cfg.BackoffBase = scale(cfg.BackoffBase)
	cfg.BackoffMax = scale(cfg.BackoffMax)
	return cfg
}

// Top1Key reduces a culprit to its identity (cause, level, location, and
// flow for flow-level culprits) — the equivalence the deployment run must
// reproduce. Scores are excluded: real-clock collection timing shifts
// scores without changing the diagnosis.
func Top1Key(c rca.Culprit) string {
	s := fmt.Sprintf("%v/%v", c.Cause, c.Level)
	for _, id := range c.Location {
		s += fmt.Sprintf("/s%d", id)
	}
	if c.Level == rca.LevelFlow {
		s += fmt.Sprintf("/f%d-%d", c.Flow.Src, c.Flow.Sink)
	}
	return s
}
