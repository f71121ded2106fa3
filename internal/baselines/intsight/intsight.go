// Package intsight re-implements the comparison baseline IntSight
// (Marques et al., CoNEXT'20) at the fidelity needed for Table 1 and
// Fig. 9: every packet carries a large (33 B) INT header accumulating an
// end-to-end latency and a contention bitmap (switches whose queues were
// building when the packet passed), and the sink emits a conditional flow
// report per epoch when the SLO was violated.
//
// Faithful limitations reproduced here (per §5.4): contention points come
// from queuing delta only, so out-of-queue Delay faults produce no
// contention bits and no localization; drop events are sensed at flow
// level (source/destination counter mismatch) but cannot be attributed to
// a switch or port, so Localize returns nothing useful for them.
package intsight

import (
	"sort"

	"mars/internal/dataplane"
	"mars/internal/det"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// The baseline's accounting, as the paper states it (§5.4, Fig. 9).
const (
	// headerBytes is IntSight's per-packet INT cost (the paper cites 33 B).
	headerBytes = 33
	// sloLatency is the static end-to-end latency objective.
	sloLatency = 25 * netsim.Millisecond
	// contentionQueueDepth marks a switch as a contention point when its
	// egress queue is at least this deep.
	contentionQueueDepth = 8
	// epochLen is the reporting period.
	epochLen = 100 * netsim.Millisecond
	// reportBytes is the size of one conditional flow report.
	reportBytes = 64
)

// meta is the per-packet IntSight header.
type meta struct {
	start      netsim.Time
	contention []topology.NodeID
}

// report is one conditional flow report at the sink.
type report struct {
	flow       netsim.FlowKey
	flowID     dataplane.FlowID
	epoch      int64
	violations int
	contention map[topology.NodeID]int
}

// Culprit is one ranked output entry.
type Culprit struct {
	// Switch is the cited contention point (-1 for flow-only entries).
	Switch topology.NodeID
	// Flow is the reporting (suffering) flow.
	Flow   netsim.FlowKey
	FlowID dataplane.FlowID
	Score  float64
}

// System is the IntSight baseline attached to one simulator run.
type System struct {
	netsim.NopHooks
	Topo *topology.Topology

	reports map[int64]map[netsim.FlowKey]*report
	// srcCount/dstCount give flow-level drop sensing.
	srcCount map[netsim.FlowKey]int64
	dstCount map[netsim.FlowKey]int64

	TelemetryBytes int64
	DiagnosisBytes int64

	sloViolated bool
	dropSensed  bool
	sinkOf      map[topology.NodeID]topology.NodeID
}

// New attaches a fresh IntSight instance.
func New(topo *topology.Topology) *System {
	s := &System{
		Topo:     topo,
		reports:  make(map[int64]map[netsim.FlowKey]*report),
		srcCount: make(map[netsim.FlowKey]int64),
		dstCount: make(map[netsim.FlowKey]int64),
		sinkOf:   make(map[topology.NodeID]topology.NodeID),
	}
	for _, h := range topo.Hosts() {
		if sw, ok := topo.EdgeSwitchOf(h); ok {
			s.sinkOf[h] = sw
		}
	}
	return s
}

// Detected reports whether any SLO violation report was emitted.
func (s *System) Detected() bool { return s.sloViolated }

// DropSensed reports flow-level drop awareness (never localizable).
func (s *System) DropSensed() bool { return s.dropSensed }

// OnForward implements netsim.Hooks.
func (s *System) OnForward(sim *netsim.Simulator, sw topology.NodeID, inPort, outPort topology.PortID, pkt *netsim.Packet, qlen int) netsim.Action {
	m, _ := pkt.Meta.(*meta)
	if m == nil {
		m = &meta{start: sim.Now()}
		pkt.Meta = m
		pkt.ExtraBytes = headerBytes
		s.srcCount[pkt.Flow]++
	}
	s.TelemetryBytes += headerBytes
	if qlen >= contentionQueueDepth {
		m.contention = append(m.contention, sw)
	}

	// Sink processing: strip header, evaluate SLO, update reports.
	if s.Topo.IsHost(s.Topo.Node(sw).Ports[outPort].Peer) {
		s.dstCount[pkt.Flow]++
		e2e := sim.Now() - m.start
		epoch := int64(sim.Now() / epochLen)
		if e2e > sloLatency {
			s.sloViolated = true
			b := s.reports[epoch]
			if b == nil {
				b = make(map[netsim.FlowKey]*report)
				s.reports[epoch] = b
			}
			r := b[pkt.Flow]
			if r == nil {
				src := s.sinkOf[pkt.Src]
				r = &report{
					flow:       pkt.Flow,
					flowID:     dataplane.FlowID{Src: src, Sink: sw},
					epoch:      epoch,
					contention: make(map[topology.NodeID]int),
				}
				b[pkt.Flow] = r
				s.DiagnosisBytes += reportBytes
			}
			r.violations++
			for _, c := range m.contention {
				r.contention[c]++
			}
		}
		// Flow-level drop sensing from the per-flow counters.
		if s.srcCount[pkt.Flow] > s.dstCount[pkt.Flow]+3 {
			s.dropSensed = true
		}
		pkt.ExtraBytes = 0
	}
	return netsim.ActionForward
}

// Localize ranks contention points by citation count across violating
// reports, interleaved with the reporting flows themselves (IntSight's
// reports are per suffering flow — the culprit burst flow is just one of
// many reporters, which is why its micro-burst recall is poor).
func (s *System) Localize() []Culprit {
	if !s.sloViolated {
		return nil
	}
	citations := make(map[topology.NodeID]float64)
	flowViolations := make(map[netsim.FlowKey]float64)
	flowIDs := make(map[netsim.FlowKey]dataplane.FlowID)
	for _, epoch := range det.Keys(s.reports) {
		b := s.reports[epoch]
		for _, fk := range det.Keys(b) {
			r := b[fk]
			for _, sw := range det.Keys(r.contention) {
				citations[sw] += float64(r.contention[sw])
			}
			flowViolations[r.flow] += float64(r.violations)
			flowIDs[r.flow] = r.flowID
		}
	}
	var out []Culprit
	for _, sw := range det.Keys(citations) {
		out = append(out, Culprit{Switch: sw, Flow: 0, Score: citations[sw]})
	}
	for _, f := range det.Keys(flowViolations) {
		out = append(out, Culprit{Switch: -1, Flow: f, FlowID: flowIDs[f], Score: flowViolations[f] / 2})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Switch != out[j].Switch {
			return out[i].Switch > out[j].Switch
		}
		return out[i].Flow < out[j].Flow
	})
	return out
}

var _ netsim.Hooks = (*System)(nil)
