package netsim

import (
	"cmp"
	"fmt"
	"slices"

	"mars/internal/topology"
)

// Router decides the egress port for a packet at a switch. Implementations
// must be deterministic functions of (switch, packet identity) so that all
// packets of a flow follow one path unless weights change.
type Router interface {
	// Route returns the egress port at sw for pkt, or ok=false if the
	// switch has no route to the destination.
	Route(sw topology.NodeID, pkt *Packet) (topology.PortID, bool)
}

// ECMPRouter implements weighted equal-cost multi-path routing over all
// shortest paths of the topology, matching the paper's "ECMP strategy
// based on path weight". The path a flow takes is chosen per switch by
// hashing the flow key over the weighted next-hop set; with default
// weights the split is even, and the ECMP-imbalance fault skews the
// weights at one switch (e.g. 1:4 .. 1:10).
type ECMPRouter struct {
	topo *topology.Topology
	// hostEdge[host] is each host's edge switch (-1 for non-hosts), dense
	// by node ID for map-free routing; hostPort[host] is that switch's
	// port toward the host.
	hostEdge []topology.NodeID
	hostPort []topology.PortID
	// spans[row[sw]*cols+col[edge]] locates, in hops, the equal-cost next
	// hops from switch sw toward edge switch edge, ascending by next-hop
	// ID. row numbers the switches and col the switches hosts attach to
	// (-1 otherwise), so the table is switches × edge switches, not nodes²,
	// and equal candidate lists of a switch are stored once: the whole
	// table stays cache-resident at k=16. The candidate sets depend only on
	// the immutable topology (weights merely bias the pick), so they are
	// precomputed once and the per-packet Route is allocation-free.
	row, col []int32
	cols     int
	spans    []span
	hops     []nextHop
	// weights[sw][nextHop] overrides the default weight 1.
	weights map[topology.NodeID]map[topology.NodeID]int32
	// salt perturbs the flow hash so different runs explore different
	// hash-to-path assignments.
	salt uint64
}

// nextHop is one precomputed equal-cost candidate: the neighbor switch and
// the local egress port toward it.
type nextHop struct {
	sw   topology.NodeID
	port topology.PortID
}

// span is one candidate list: hops[off : off+n].
type span struct{ off, n uint32 }

// NewECMPRouter precomputes the per-(switch, edge) equal-cost next-hop
// sets from each switch's distance to each edge switch: one BFS per edge
// switch over the switch-only subgraph, into a dense per-node array, since
// Route reads distances to edge switches only.
func NewECMPRouter(topo *topology.Topology, salt uint64) *ECMPRouter {
	n := len(topo.Nodes)
	r := &ECMPRouter{
		topo:     topo,
		hostEdge: make([]topology.NodeID, n),
		hostPort: make([]topology.PortID, n),
		row:      make([]int32, n),
		col:      make([]int32, n),
		weights:  make(map[topology.NodeID]map[topology.NodeID]int32),
		salt:     salt,
	}
	for i := range r.hostEdge {
		r.hostEdge[i], r.row[i], r.col[i] = -1, -1, -1
	}
	var edges []topology.NodeID
	for _, h := range topo.Hosts() {
		if sw, ok := topo.EdgeSwitchOf(h); ok {
			r.hostEdge[h] = sw
			if p, ok := topo.PortTo(sw, h); ok {
				r.hostPort[h] = p
			}
			if r.col[sw] < 0 {
				r.col[sw] = int32(len(edges))
				edges = append(edges, sw)
			}
		}
	}
	r.cols = len(edges)
	// dist[c*n+v] is switch v's hop count to edges[c], -1 if unreachable.
	dist := make([]int32, len(edges)*n)
	queue := make([]topology.NodeID, 0, topo.NumSwitches())
	for c, edge := range edges {
		d := dist[c*n : (c+1)*n]
		for i := range d {
			d[i] = -1
		}
		d[edge] = 0
		queue = append(queue[:0], edge)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, p := range topo.Nodes[u].Ports {
				if v := p.Peer; d[v] < 0 && topo.IsSwitch(v) {
					d[v] = d[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	// Materialize the candidate sets from each switch's switch neighbors,
	// sorted once by ID (ports in order among parallel links), so every
	// list comes out ascending by next hop.
	r.spans = make([]span, topo.NumSwitches()*r.cols)
	var nbrs, hops []nextHop
	for i, sw := range topo.Switches() {
		r.row[sw] = int32(i)
		nbrs = nbrs[:0]
		for pi, p := range topo.Nodes[sw].Ports {
			if topo.IsSwitch(p.Peer) {
				nbrs = append(nbrs, nextHop{sw: p.Peer, port: topology.PortID(pi)})
			}
		}
		slices.SortStableFunc(nbrs, func(a, b nextHop) int { return cmp.Compare(a.sw, b.sw) })
		rowStart := len(r.hops)
		for c, edge := range edges {
			d := dist[c*n : (c+1)*n]
			if sw == edge || d[sw] < 0 {
				continue
			}
			hops = hops[:0]
			for _, h := range nbrs {
				if d[h.sw] == d[sw]-1 {
					hops = append(hops, h)
				}
			}
			r.spans[i*r.cols+c] = r.intern(rowStart, hops)
		}
	}
	return r
}

// intern returns the span of list within r.hops[from:], appending it if no
// equal run is there yet. A switch has few distinct candidate lists (one
// per neighbor plus one per tier above), so the scan is short.
func (r *ECMPRouter) intern(from int, list []nextHop) span {
	for off := from; off+len(list) <= len(r.hops); off++ {
		if slices.Equal(r.hops[off:off+len(list)], list) {
			return span{uint32(off), uint32(len(list))}
		}
	}
	r.hops = append(r.hops, list...)
	return span{uint32(len(r.hops) - len(list)), uint32(len(list))}
}

// candidates returns the equal-cost next hops from sw toward edge switch
// edge (nil when sw is not a switch or has no route).
func (r *ECMPRouter) candidates(sw, edge topology.NodeID) []nextHop {
	i := r.row[sw]
	if i < 0 {
		return nil
	}
	sp := r.spans[int(i)*r.cols+int(r.col[edge])]
	return r.hops[sp.off : sp.off+sp.n]
}

// SetWeight overrides the ECMP weight used at sw when the candidate next
// hop is via. Weight must be >= 1. Weights apply to every destination the
// next hop is on a shortest path toward.
func (r *ECMPRouter) SetWeight(sw, via topology.NodeID, w int32) {
	if w < 1 {
		panic(fmt.Sprintf("netsim: ECMP weight must be >= 1, got %d", w))
	}
	m := r.weights[sw]
	if m == nil {
		m = make(map[topology.NodeID]int32)
		r.weights[sw] = m
	}
	m[via] = w
}

// ResetWeights restores even splitting at sw.
func (r *ECMPRouter) ResetWeights(sw topology.NodeID) {
	delete(r.weights, sw)
}

// WeightsAt returns a copy of the weight overrides at sw (nil when the
// split is even). Fault injections snapshot this before skewing so a
// revert can restore exactly what it displaced, even under overlapping
// schedule windows.
func (r *ECMPRouter) WeightsAt(sw topology.NodeID) map[topology.NodeID]int32 {
	m := r.weights[sw]
	if m == nil {
		return nil
	}
	out := make(map[topology.NodeID]int32, len(m))
	//mars:mapiter-ok plain copy; no ordered output derived from iteration
	for k, v := range m {
		out[k] = v
	}
	return out
}

// RestoreWeights replaces sw's overrides with a snapshot from WeightsAt
// (nil restores even splitting, like ResetWeights).
func (r *ECMPRouter) RestoreWeights(sw topology.NodeID, saved map[topology.NodeID]int32) {
	if len(saved) == 0 {
		delete(r.weights, sw)
		return
	}
	r.weights[sw] = saved
}

// NextHops returns the equal-cost next-hop switches from sw toward dst
// host, in ascending ID order (empty if sw is the destination edge switch).
func (r *ECMPRouter) NextHops(sw topology.NodeID, dst topology.NodeID) []topology.NodeID {
	if int(dst) >= len(r.hostEdge) {
		return nil
	}
	edge := r.hostEdge[dst]
	if edge < 0 || sw == edge {
		return nil
	}
	cands := r.candidates(sw, edge)
	if len(cands) == 0 {
		return nil
	}
	hops := make([]topology.NodeID, len(cands))
	for i, c := range cands {
		hops[i] = c.sw
	}
	return hops
}

// Route implements Router. It runs per packet per hop and performs no
// allocation: candidate sets and host ports are precomputed.
func (r *ECMPRouter) Route(sw topology.NodeID, pkt *Packet) (topology.PortID, bool) {
	if int(pkt.Dst) >= len(r.hostEdge) {
		return 0, false
	}
	edge := r.hostEdge[pkt.Dst]
	if edge < 0 {
		return 0, false
	}
	if sw == edge {
		return r.hostPort[pkt.Dst], true
	}
	cands := r.candidates(sw, edge)
	if len(cands) == 0 {
		return 0, false
	}
	next := cands[0]
	if len(cands) > 1 {
		h := splitmix64(uint64(pkt.Flow) ^ r.salt ^ uint64(sw)*0x9E3779B97F4A7C15)
		w := r.weights[sw]
		if w == nil {
			// Every weight is 1: the weighted walk below lands on h % len.
			return cands[h%uint64(len(cands))].port, true
		}
		var total int64
		for _, c := range cands {
			total += weightOf(w, c.sw)
		}
		pick := int64(h % uint64(total))
		for _, c := range cands {
			pick -= weightOf(w, c.sw)
			if pick < 0 {
				next = c
				break
			}
		}
	}
	return next.port, true
}

// weightOf returns the ECMP weight for next hop via among one switch's
// overrides w (default 1).
func weightOf(w map[topology.NodeID]int32, via topology.NodeID) int64 {
	if v, ok := w[via]; ok {
		return int64(v)
	}
	return 1
}

// splitmix64 is a fast, well-mixed 64-bit hash used for flow placement.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
