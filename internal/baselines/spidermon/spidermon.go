// Package spidermon re-implements the comparison baseline SpiderMon
// (Wang et al., NSDI'22) at the fidelity needed for the paper's Table 1
// and Fig. 9: packets carry a small cumulative-queuing-delay header; when
// the accumulated delay crosses a static threshold a "spider" wave
// collects telemetry from ALL switches (not just edges — SpiderMon's
// defining overhead), and diagnosis builds a Wait-For Graph (WFG) between
// flows sharing congested queues, ranking culprits by degree.
//
// Faithful limitations reproduced here (per §5.4): the trigger fires only
// on queuing delay, so out-of-queue Delay faults and Drop faults are never
// detected and no culprit list is produced for them.
package spidermon

import (
	"sort"

	"mars/internal/dataplane"
	"mars/internal/det"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// The baseline as the paper describes it (§5.4, Fig. 9): a minimal
// header and wave collection from every switch.
const (
	// triggerQueueDepth is the static cumulative queue-depth threshold that
	// fires the spider wave (SpiderMon uses queuing-delta time; queue depth
	// is its observable proxy here).
	triggerQueueDepth = 60
	// bucketLen is the granularity of the telemetry history the wave
	// collects.
	bucketLen = 100 * netsim.Millisecond
	// headerBytes is SpiderMon's per-packet INT cost (latency only).
	headerBytes = 4
	// perSwitchReportBytes is the per-switch cost of one spider wave.
	perSwitchReportBytes = 2048
)

// meta is SpiderMon's per-packet header.
type meta struct {
	cumQueue uint32
}

// occKey identifies one egress queue.
type occKey struct {
	sw   topology.NodeID
	port topology.PortID
}

// Culprit is one ranked output entry.
type Culprit struct {
	// Flow is the blamed flow (WFG vertices are flows).
	Flow netsim.FlowKey
	// FlowID is the MARS-style edge-pair identity for cross-system scoring.
	FlowID dataplane.FlowID
	// Switches are the locations implicated by the flow's wait-for edges:
	// the congested switch plus its upstream feeder.
	Switches []topology.NodeID
	// Score is indegree minus outdegree in the WFG.
	Score float64
}

// System is the SpiderMon baseline attached to one simulator run.
type System struct {
	netsim.NopHooks
	Topo *topology.Topology

	// occupancy[bucket][queue][flow] = packets enqueued.
	occupancy map[int64]map[occKey]map[netsim.FlowKey]int32
	// pred[flow] = predecessor switch before each switch (for upstream
	// implication), keyed by (flow, switch).
	pred map[flowSwitch]topology.NodeID
	// flowEdges records each flow's (source edge, sink edge).
	flowEdges map[netsim.FlowKey]dataplane.FlowID

	triggered   bool
	triggerTime netsim.Time
	triggerSw   topology.NodeID

	// Overhead accounting.
	TelemetryBytes int64
	DiagnosisBytes int64

	sinkOf map[topology.NodeID]topology.NodeID
}

type flowSwitch struct {
	flow netsim.FlowKey
	sw   topology.NodeID
}

// New attaches a fresh SpiderMon instance (use as the simulator's Hooks).
func New(topo *topology.Topology) *System {
	s := &System{
		Topo:      topo,
		occupancy: make(map[int64]map[occKey]map[netsim.FlowKey]int32),
		pred:      make(map[flowSwitch]topology.NodeID),
		flowEdges: make(map[netsim.FlowKey]dataplane.FlowID),
		sinkOf:    make(map[topology.NodeID]topology.NodeID),
	}
	for _, h := range topo.Hosts() {
		if sw, ok := topo.EdgeSwitchOf(h); ok {
			s.sinkOf[h] = sw
		}
	}
	return s
}

// Detected reports whether the static trigger ever fired.
func (s *System) Detected() bool { return s.triggered }

// OnForward implements netsim.Hooks.
func (s *System) OnForward(sim *netsim.Simulator, sw topology.NodeID, inPort, outPort topology.PortID, pkt *netsim.Packet, qlen int) netsim.Action {
	m, _ := pkt.Meta.(*meta)
	if m == nil {
		m = &meta{}
		pkt.Meta = m
		pkt.ExtraBytes = headerBytes
		src, _ := s.sinkOf[pkt.Src]
		s.flowEdges[pkt.Flow] = dataplane.FlowID{Src: src, Sink: s.sinkOf[pkt.Dst]}
	}
	m.cumQueue += uint32(qlen)
	s.TelemetryBytes += headerBytes

	bucket := int64(sim.Now() / bucketLen)
	qk := occKey{sw, outPort}
	b := s.occupancy[bucket]
	if b == nil {
		b = make(map[occKey]map[netsim.FlowKey]int32)
		s.occupancy[bucket] = b
	}
	q := b[qk]
	if q == nil {
		q = make(map[netsim.FlowKey]int32)
		b[qk] = q
	}
	q[pkt.Flow]++

	if inPeer := s.Topo.Node(sw).Ports[inPort].Peer; s.Topo.IsSwitch(inPeer) {
		s.pred[flowSwitch{pkt.Flow, sw}] = inPeer
	}

	if !s.triggered && m.cumQueue >= triggerQueueDepth {
		s.triggered = true
		s.triggerTime = sim.Now()
		s.triggerSw = sw
		// Spider wave: every switch reports its recent telemetry.
		s.DiagnosisBytes += int64(s.Topo.NumSwitches()) * perSwitchReportBytes
	}
	return netsim.ActionForward
}

// Localize builds the WFG over the buckets around the trigger and returns
// flows ranked by (indegree - outdegree). It returns nil when the trigger
// never fired — SpiderMon cannot start an RCA it never detected.
func (s *System) Localize() []Culprit {
	if !s.triggered {
		return nil
	}
	trigBucket := int64(s.triggerTime / bucketLen)
	in := make(map[netsim.FlowKey]float64)
	out := make(map[netsim.FlowKey]float64)
	domQueue := make(map[netsim.FlowKey]occKey)
	domCount := make(map[netsim.FlowKey]int32)

	occKeyLess := func(a, b occKey) bool {
		if a.sw != b.sw {
			return a.sw < b.sw
		}
		return a.port < b.port
	}
	for b := trigBucket - 1; b <= trigBucket; b++ {
		buckets := s.occupancy[b]
		for _, qk := range det.KeysFunc(buckets, occKeyLess) {
			flows := buckets[qk]
			// Flows with fewer packets in the queue wait for flows with
			// more; self-edges are excluded.
			type fc struct {
				f netsim.FlowKey
				c int32
			}
			list := make([]fc, 0, len(flows))
			for _, f := range det.Keys(flows) {
				c := flows[f]
				list = append(list, fc{f, c})
				if c > domCount[f] {
					domCount[f] = c
					domQueue[f] = qk
				}
			}
			sort.Slice(list, func(i, j int) bool {
				if list[i].c != list[j].c {
					return list[i].c < list[j].c
				}
				return list[i].f < list[j].f
			})
			for i := 0; i < len(list); i++ {
				for j := i + 1; j < len(list); j++ {
					if list[j].c > list[i].c {
						out[list[i].f]++
						in[list[j].f]++
					}
				}
			}
		}
	}

	var flows []netsim.FlowKey
	seen := map[netsim.FlowKey]bool{}
	for _, f := range det.Keys(in) {
		if !seen[f] {
			seen[f] = true
			flows = append(flows, f)
		}
	}
	for _, f := range det.Keys(out) {
		if !seen[f] {
			seen[f] = true
			flows = append(flows, f)
		}
	}
	culprits := make([]Culprit, 0, len(flows))
	for _, f := range flows {
		qk := domQueue[f]
		locs := []topology.NodeID{qk.sw}
		// SpiderMon's wait-for provenance walks upstream along the
		// congestion tree: implicate the flow's feeder into the hot queue.
		if p, ok := s.pred[flowSwitch{f, qk.sw}]; ok {
			locs = append(locs, p)
		}
		culprits = append(culprits, Culprit{
			Flow:     f,
			FlowID:   s.flowEdges[f],
			Switches: locs,
			Score:    in[f] - out[f],
		})
	}
	sort.Slice(culprits, func(i, j int) bool {
		if culprits[i].Score != culprits[j].Score {
			return culprits[i].Score > culprits[j].Score
		}
		return culprits[i].Flow < culprits[j].Flow
	})
	return culprits
}

var _ netsim.Hooks = (*System)(nil)
