// Package syndb re-implements the comparison baseline SyNDB (Kannan et
// al., NSDI'21) at the fidelity needed for Table 1 and Fig. 9: every
// switch streams a p-record for every packet it forwards into a central
// database (enormous diagnosis bandwidth, zero INT header), and diagnosis
// is query-based — the operator must know what to look for.
//
// As in the paper's evaluation, this implementation is granted expert
// knowledge: Localize takes the fault class as the query to run, which is
// why its accuracy is shown grayed-out in Table 1. Without that hint an
// operator would iterate every query.
package syndb

import (
	"sort"

	"mars/internal/dataplane"
	"mars/internal/det"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// Query selects the expert diagnosis procedure.
type Query uint8

const (
	// QueryMicroBurst looks for per-flow rate spikes.
	QueryMicroBurst Query = iota
	// QueryECMP looks for uneven successor splits.
	QueryECMP
	// QueryProcessRate looks for persistently deep queues.
	QueryProcessRate
	// QueryDelay looks for inflated per-switch residence times.
	QueryDelay
	// QueryDrop looks for packets that vanish after a switch.
	QueryDrop
)

// The baseline's accounting, as the paper states it (§5.4, Fig. 9).
const (
	// recordBytes is the wire size of one p-record streamed to the DB.
	recordBytes = 16
	// maxRecords bounds the database (a capture ring, as in SyNDB).
	maxRecords = 1 << 20
	// bucket is the time bucket for rate queries.
	bucket = 100 * netsim.Millisecond
)

// pRecord is one per-switch packet record.
type pRecord struct {
	pkt  uint64
	flow netsim.FlowKey
	sw   topology.NodeID
	port topology.PortID
	at   netsim.Time
	qlen int32
}

// Culprit is one ranked output entry.
type Culprit struct {
	Switch topology.NodeID // -1 for flow entries
	Flow   netsim.FlowKey
	FlowID dataplane.FlowID
	Score  float64
}

// System is the SyNDB baseline attached to one simulator run.
type System struct {
	netsim.NopHooks
	Topo *topology.Topology

	records []pRecord
	// lastSeen/delivered support the drop query.
	lastSeen  map[uint64]topology.NodeID
	delivered map[uint64]bool
	flowIDs   map[netsim.FlowKey]dataplane.FlowID

	TelemetryBytes int64 // always 0: SyNDB adds no INT header
	DiagnosisBytes int64

	sinkOf map[topology.NodeID]topology.NodeID
}

// New attaches a fresh SyNDB instance.
func New(topo *topology.Topology) *System {
	s := &System{
		Topo:      topo,
		lastSeen:  make(map[uint64]topology.NodeID),
		delivered: make(map[uint64]bool),
		flowIDs:   make(map[netsim.FlowKey]dataplane.FlowID),
		sinkOf:    make(map[topology.NodeID]topology.NodeID),
	}
	for _, h := range topo.Hosts() {
		if sw, ok := topo.EdgeSwitchOf(h); ok {
			s.sinkOf[h] = sw
		}
	}
	return s
}

// OnForward implements netsim.Hooks: every switch streams a p-record.
func (s *System) OnForward(sim *netsim.Simulator, sw topology.NodeID, inPort, outPort topology.PortID, pkt *netsim.Packet, qlen int) netsim.Action {
	if len(s.records) < maxRecords {
		s.records = append(s.records, pRecord{
			pkt: pkt.ID, flow: pkt.Flow, sw: sw, port: outPort,
			at: sim.Now(), qlen: int32(qlen),
		})
	}
	s.DiagnosisBytes += recordBytes
	s.lastSeen[pkt.ID] = sw
	if _, ok := s.flowIDs[pkt.Flow]; !ok {
		s.flowIDs[pkt.Flow] = dataplane.FlowID{Src: s.sinkOf[pkt.Src], Sink: s.sinkOf[pkt.Dst]}
	}
	return netsim.ActionForward
}

// OnDeliver implements netsim.Hooks.
func (s *System) OnDeliver(sim *netsim.Simulator, host topology.NodeID, pkt *netsim.Packet) {
	s.delivered[pkt.ID] = true
}

// Localize runs the expert query for the (externally known) fault class.
func (s *System) Localize(q Query) []Culprit {
	switch q {
	case QueryMicroBurst:
		return s.queryMicroBurst()
	case QueryECMP:
		return s.queryECMP()
	case QueryProcessRate:
		return s.queryProcessRate()
	case QueryDelay:
		return s.queryDelay()
	case QueryDrop:
		return s.queryDrop()
	default:
		return s.queryDrop()
	}
}

func sortCulprits(out []Culprit) []Culprit {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Switch != out[j].Switch {
			return out[i].Switch < out[j].Switch
		}
		return out[i].Flow < out[j].Flow
	})
	return out
}

// queryMicroBurst ranks flows by peak-to-median bucket rate.
func (s *System) queryMicroBurst() []Culprit {
	buckets := make(map[netsim.FlowKey]map[int64]float64)
	for _, r := range s.records {
		b := buckets[r.flow]
		if b == nil {
			b = make(map[int64]float64)
			buckets[r.flow] = b
		}
		b[int64(r.at/bucket)]++
	}
	var out []Culprit
	for _, f := range det.Keys(buckets) {
		b := buckets[f]
		var vals []float64
		var peak float64
		//mars:mapiter-ok peak is a pure maximum and vals is fully sorted before use
		for _, v := range b {
			vals = append(vals, v)
			if v > peak {
				peak = v
			}
		}
		sort.Float64s(vals)
		med := vals[len(vals)/2]
		if med < 1 {
			med = 1
		}
		out = append(out, Culprit{Switch: -1, Flow: f, FlowID: s.flowIDs[f], Score: peak / med})
	}
	return sortCulprits(out)
}

// queryECMP ranks switches by successor-count imbalance.
func (s *System) queryECMP() []Culprit {
	// Reconstruct per-packet switch sequences from record order.
	succ := make(map[topology.NodeID]map[topology.NodeID]float64)
	prevSw := make(map[uint64]topology.NodeID)
	hasPrev := make(map[uint64]bool)
	for _, r := range s.records {
		if hasPrev[r.pkt] {
			p := prevSw[r.pkt]
			m := succ[p]
			if m == nil {
				m = make(map[topology.NodeID]float64)
				succ[p] = m
			}
			m[r.sw]++
		}
		prevSw[r.pkt] = r.sw
		hasPrev[r.pkt] = true
	}
	var out []Culprit
	for _, sw := range det.Keys(succ) {
		m := succ[sw]
		if len(m) < 2 {
			continue
		}
		var max, min float64
		first := true
		//mars:mapiter-ok max and min are pure extrema over the values
		for _, v := range m {
			if first || v > max {
				max = v
			}
			if first || v < min {
				min = v
			}
			first = false
		}
		if min < 1 {
			min = 1
		}
		out = append(out, Culprit{Switch: sw, Score: max / min})
	}
	return sortCulprits(out)
}

// queryProcessRate ranks switches by their deepest port's mean queue.
func (s *System) queryProcessRate() []Culprit {
	type pk struct {
		sw   topology.NodeID
		port topology.PortID
	}
	sum := make(map[pk]float64)
	n := make(map[pk]float64)
	for _, r := range s.records {
		k := pk{r.sw, r.port}
		sum[k] += float64(r.qlen)
		n[k]++
	}
	best := make(map[topology.NodeID]float64)
	//mars:mapiter-ok best keeps a pure per-switch maximum; ties store the identical value
	for k, s2 := range sum {
		mean := s2 / n[k]
		if mean > best[k.sw] {
			best[k.sw] = mean
		}
	}
	var out []Culprit
	for _, sw := range det.Keys(best) {
		out = append(out, Culprit{Switch: sw, Score: best[sw]})
	}
	return sortCulprits(out)
}

// queryDelay ranks switches by mean hop gap (time between the previous
// switch's record and this switch's record for the same packet). The gap
// contains the upstream serialization plus this switch's own processing
// latency, so out-of-queue delay faults surface at the delayed switch.
func (s *System) queryDelay() []Culprit {
	lastAt := make(map[uint64]netsim.Time)
	has := make(map[uint64]bool)
	sum := make(map[topology.NodeID]float64)
	n := make(map[topology.NodeID]float64)
	for _, r := range s.records {
		if has[r.pkt] {
			sum[r.sw] += float64(r.at - lastAt[r.pkt])
			n[r.sw]++
		}
		lastAt[r.pkt] = r.at
		has[r.pkt] = true
	}
	var out []Culprit
	for _, sw := range det.Keys(sum) {
		out = append(out, Culprit{Switch: sw, Score: sum[sw] / n[sw]})
	}
	return sortCulprits(out)
}

// queryDrop ranks switches by the number of packets last seen there that
// were never delivered.
func (s *System) queryDrop() []Culprit {
	vanished := make(map[topology.NodeID]float64)
	//mars:mapiter-ok counting by exact float increments of 1 is order-independent
	for pkt, sw := range s.lastSeen {
		if !s.delivered[pkt] {
			vanished[sw]++
		}
	}
	var out []Culprit
	for _, sw := range det.Keys(vanished) {
		out = append(out, Culprit{Switch: sw, Score: vanished[sw]})
	}
	return sortCulprits(out)
}

var _ netsim.Hooks = (*System)(nil)
