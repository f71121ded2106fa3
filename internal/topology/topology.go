// Package topology models the physical network graph MARS operates on:
// switches, hosts, ports, and links, together with builders for standard
// data-center topologies (fat-tree) and ECMP path enumeration.
//
// The topology is static for the lifetime of a simulation. Node and port
// identifiers are small dense integers so that the simulator and the
// data-plane tables can index arrays instead of maps on hot paths.
package topology

import (
	"fmt"
	"slices"
	"sync"
)

// NodeID identifies a switch or host in the topology. IDs are dense,
// starting at 0, switches first, then hosts.
type NodeID int32

// PortID identifies a port local to one node. Ports are dense per node,
// starting at 0.
type PortID int32

// NodeKind distinguishes forwarding devices from end hosts.
type NodeKind uint8

const (
	// KindSwitch is a forwarding device running a data-plane pipeline.
	KindSwitch NodeKind = iota
	// KindHost is an end host that sources and sinks traffic.
	KindHost
)

func (k NodeKind) String() string {
	switch k {
	case KindSwitch:
		return "switch"
	case KindHost:
		return "host"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Layer classifies switches of a tiered data-center topology. Hosts have
// LayerHost; topologies without tiers use LayerUnknown.
type Layer uint8

const (
	// LayerUnknown marks nodes of topologies without tier information.
	LayerUnknown Layer = iota
	// LayerCore is the top tier of a fat-tree.
	LayerCore
	// LayerAggregation is the middle tier of a fat-tree pod.
	LayerAggregation
	// LayerEdge is the bottom switch tier (ToR) of a fat-tree pod.
	LayerEdge
	// LayerHost marks end hosts.
	LayerHost
)

func (l Layer) String() string {
	switch l {
	case LayerCore:
		return "core"
	case LayerAggregation:
		return "aggregation"
	case LayerEdge:
		return "edge"
	case LayerHost:
		return "host"
	case LayerUnknown:
		return "unknown"
	default:
		return "unknown"
	}
}

// Node is one device in the topology.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	Layer Layer
	Name  string
	// Ports[i] describes the link attached to local port i.
	Ports []Port
}

// Port describes one end of a link from the owning node's perspective.
type Port struct {
	// Peer is the node on the other end of the link.
	Peer NodeID
	// PeerPort is the port index on the peer.
	PeerPort PortID
	// Link indexes Topology.Links.
	Link LinkID
}

// LinkID identifies an undirected link.
type LinkID int32

// Link is an undirected edge between two node/port pairs.
type Link struct {
	ID    LinkID
	A, B  NodeID
	APort PortID
	BPort PortID
}

// Topology is an immutable network graph.
type Topology struct {
	Nodes []Node
	Links []Link

	numSwitches int
	numHosts    int

	// shortestIdx is built on the first path enumeration (shortest).
	shortestOnce sync.Once
	shortestIdx  *shortestIndex
}

// NumSwitches returns the count of switch nodes.
func (t *Topology) NumSwitches() int { return t.numSwitches }

// NumHosts returns the count of host nodes.
func (t *Topology) NumHosts() int { return t.numHosts }

// Switches returns the IDs of all switch nodes in ascending order.
func (t *Topology) Switches() []NodeID {
	ids := make([]NodeID, 0, t.numSwitches)
	for i := range t.Nodes {
		if t.Nodes[i].Kind == KindSwitch {
			ids = append(ids, t.Nodes[i].ID)
		}
	}
	return ids
}

// Hosts returns the IDs of all host nodes in ascending order.
func (t *Topology) Hosts() []NodeID {
	ids := make([]NodeID, 0, t.numHosts)
	for i := range t.Nodes {
		if t.Nodes[i].Kind == KindHost {
			ids = append(ids, t.Nodes[i].ID)
		}
	}
	return ids
}

// Node returns the node with the given ID. It panics if id is out of range.
func (t *Topology) Node(id NodeID) *Node { return &t.Nodes[id] }

// IsSwitch reports whether id names a switch.
func (t *Topology) IsSwitch(id NodeID) bool {
	return int(id) < len(t.Nodes) && t.Nodes[id].Kind == KindSwitch
}

// IsHost reports whether id names a host.
func (t *Topology) IsHost(id NodeID) bool {
	return int(id) < len(t.Nodes) && t.Nodes[id].Kind == KindHost
}

// PortTo returns the local port on from that leads to neighbor to.
// ok is false if the nodes are not adjacent.
func (t *Topology) PortTo(from, to NodeID) (PortID, bool) {
	n := &t.Nodes[from]
	for i := range n.Ports {
		if n.Ports[i].Peer == to {
			return PortID(i), true
		}
	}
	return 0, false
}

// Neighbors returns the IDs adjacent to id, in port order.
func (t *Topology) Neighbors(id NodeID) []NodeID {
	n := &t.Nodes[id]
	out := make([]NodeID, len(n.Ports))
	for i := range n.Ports {
		out[i] = n.Ports[i].Peer
	}
	return out
}

// InterSwitchLinks lists the IDs of links whose endpoints are both
// switches, in ascending link order. These are the links the gray-failure
// scenarios (link down, flapping) draw from: host access links are
// excluded because killing one just silences its host.
func (t *Topology) InterSwitchLinks() []LinkID {
	var out []LinkID
	for _, l := range t.Links {
		if t.IsSwitch(l.A) && t.IsSwitch(l.B) {
			out = append(out, l.ID)
		}
	}
	return out
}

// EdgeSwitchOf returns the edge switch a host is attached to. It returns
// ok=false if id is not a host or the host has no switch neighbor.
func (t *Topology) EdgeSwitchOf(host NodeID) (NodeID, bool) {
	if !t.IsHost(host) {
		return 0, false
	}
	for _, p := range t.Nodes[host].Ports {
		if t.IsSwitch(p.Peer) {
			return p.Peer, true
		}
	}
	return 0, false
}

// Validate checks structural invariants: symmetric port wiring and
// consistent link endpoints. It is intended for tests and builders.
func (t *Topology) Validate() error {
	for li := range t.Links {
		l := &t.Links[li]
		if int(l.A) >= len(t.Nodes) || int(l.B) >= len(t.Nodes) {
			return fmt.Errorf("link %d references missing node", l.ID)
		}
		pa := t.Nodes[l.A].Ports
		pb := t.Nodes[l.B].Ports
		if int(l.APort) >= len(pa) || int(l.BPort) >= len(pb) {
			return fmt.Errorf("link %d references missing port", l.ID)
		}
		if pa[l.APort].Peer != l.B || pa[l.APort].PeerPort != l.BPort {
			return fmt.Errorf("link %d: port %d of node %d not wired to %d/%d", l.ID, l.APort, l.A, l.B, l.BPort)
		}
		if pb[l.BPort].Peer != l.A || pb[l.BPort].PeerPort != l.APort {
			return fmt.Errorf("link %d: port %d of node %d not wired to %d/%d", l.ID, l.BPort, l.B, l.A, l.APort)
		}
	}
	for ni := range t.Nodes {
		n := &t.Nodes[ni]
		if n.ID != NodeID(ni) {
			return fmt.Errorf("node %d has inconsistent ID %d", ni, n.ID)
		}
		for pi := range n.Ports {
			p := &n.Ports[pi]
			if int(p.Link) >= len(t.Links) {
				return fmt.Errorf("node %d port %d references missing link", ni, pi)
			}
			l := &t.Links[p.Link]
			if l.A != n.ID && l.B != n.ID {
				return fmt.Errorf("node %d port %d references foreign link %d", ni, pi, p.Link)
			}
		}
	}
	return nil
}

// Builder incrementally constructs a Topology.
type Builder struct {
	nodes []Node
	links []Link
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder { return &Builder{} }

// AddSwitch appends a switch node and returns its ID.
func (b *Builder) AddSwitch(name string, layer Layer) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Kind: KindSwitch, Layer: layer, Name: name})
	return id
}

// AddHost appends a host node and returns its ID.
func (b *Builder) AddHost(name string) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Kind: KindHost, Layer: LayerHost, Name: name})
	return id
}

// Connect wires a new undirected link between a and b, allocating the next
// free port on each side, and returns the link ID.
func (b *Builder) Connect(a, c NodeID) LinkID {
	lid := LinkID(len(b.links))
	ap := PortID(len(b.nodes[a].Ports))
	cp := PortID(len(b.nodes[c].Ports))
	b.nodes[a].Ports = append(b.nodes[a].Ports, Port{Peer: c, PeerPort: cp, Link: lid})
	b.nodes[c].Ports = append(b.nodes[c].Ports, Port{Peer: a, PeerPort: ap, Link: lid})
	b.links = append(b.links, Link{ID: lid, A: a, B: c, APort: ap, BPort: cp})
	return lid
}

// Build finalizes the topology. The builder must not be reused afterwards.
func (b *Builder) Build() (*Topology, error) {
	t := &Topology{Nodes: b.nodes, Links: b.links}
	for i := range t.Nodes {
		switch t.Nodes[i].Kind {
		case KindSwitch:
			t.numSwitches++
		case KindHost:
			t.numHosts++
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Path is a sequence of switch IDs a packet traverses, source switch first,
// sink switch last. Host endpoints are not part of the path: MARS's FlowID
// is ⟨s_source, s_sink⟩ and its diagnosis operates on switch sequences.
type Path []NodeID

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Contains reports whether sub occurs as a contiguous subsequence of p.
func (p Path) Contains(sub []NodeID) bool {
	if len(sub) == 0 {
		return true
	}
	if len(sub) > len(p) {
		return false
	}
outer:
	for i := 0; i+len(sub) <= len(p); i++ {
		for j := range sub {
			if p[i+j] != sub[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

func (p Path) String() string {
	s := "<"
	for i, n := range p {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("s%d", n)
	}
	return s + ">"
}

// AllShortestPaths enumerates every shortest switch-level path from src to
// dst (both switches), in deterministic order: lexicographic from dst
// backwards, predecessors in ascending ID. The paths are carved from one
// backing array, each capped at its length.
func (t *Topology) AllShortestPaths(src, dst NodeID) []Path {
	if src == dst {
		return []Path{{src}}
	}
	if !t.IsSwitch(src) || !t.IsSwitch(dst) {
		return nil
	}
	x := t.shortest()
	n, hops := x.size(x.sw[src], x.sw[dst])
	if n == 0 {
		return nil
	}
	w := pathWalk{x: x, nodes: make([]NodeID, 0, hops), paths: make([]Path, 0, n)}
	w.walk(x.sw[src], x.sw[dst])
	return w.paths
}

// AllEdgePairPaths enumerates the shortest paths between every ordered pair
// of distinct edge switches, in ascending (src, dst) order, each pair's
// paths in AllShortestPaths' order, all carved from one backing array.
func (t *Topology) AllEdgePairPaths() []Path {
	var edges []NodeID
	for i := range t.Nodes {
		if t.Nodes[i].Kind == KindSwitch && t.Nodes[i].Layer == LayerEdge {
			edges = append(edges, t.Nodes[i].ID)
		}
	}
	if len(edges) == 0 {
		// Topologies without layer info: use all switches.
		edges = t.Switches()
	}
	x := t.shortest()
	paths, hops := 0, 0
	for _, s := range edges {
		for _, d := range edges {
			if s != d {
				n, h := x.size(x.sw[s], x.sw[d])
				paths, hops = paths+n, hops+h
			}
		}
	}
	w := pathWalk{x: x, nodes: make([]NodeID, 0, hops), paths: make([]Path, 0, paths)}
	for _, s := range edges {
		for _, d := range edges {
			if s != d {
				w.walk(x.sw[s], x.sw[d])
			}
		}
	}
	return w.paths
}

// shortest returns the topology's shortestIndex, building it on first use.
func (t *Topology) shortest() *shortestIndex {
	t.shortestOnce.Do(func() { t.shortestIdx = newShortestIndex(t) })
	return t.shortestIdx
}

// shortestIndex is what the path enumerations read: each switch's switch
// neighbors in ascending ID order, and a BFS over the switch-only graph
// from each switch that has been a source, kept as dense rows. Switches are
// numbered in ascending ID order, so ascending number is ascending ID.
type shortestIndex struct {
	n  int
	sw []int32  // sw[node] is the node's switch number, -1 for a host
	id []NodeID // id[i] is switch number i's node
	// adj[off[i]:off[i+1]] are switch i's switch neighbors, one per port,
	// ascending.
	off, adj []int32
	rows     []shortestRow
}

// shortestRow is the BFS from one source switch, made on its first use:
// depth[j] is switch j's depth (-1 unreached), count[j] the number of
// shortest paths to it, and pred[poff[j]:poff[j+1]] its neighbors one
// level nearer the source, ascending: the steps a backtrack from j takes.
type shortestRow struct {
	once               sync.Once
	depth, count, poff []int32
	pred               []int32
}

func newShortestIndex(t *Topology) *shortestIndex {
	x := &shortestIndex{sw: make([]int32, len(t.Nodes)), id: make([]NodeID, 0, t.numSwitches)}
	for v := range t.Nodes {
		x.sw[v] = -1
		if t.Nodes[v].Kind == KindSwitch {
			x.sw[v] = int32(len(x.id))
			x.id = append(x.id, NodeID(v))
		}
	}
	x.n, x.off, x.rows = len(x.id), make([]int32, len(x.id)+1), make([]shortestRow, len(x.id))
	for i, v := range x.id {
		for _, p := range t.Nodes[v].Ports {
			if u := x.sw[p.Peer]; u >= 0 {
				x.adj = append(x.adj, u)
			}
		}
		slices.Sort(x.adj[x.off[i]:])
		x.off[i+1] = int32(len(x.adj))
	}
	return x
}

// row returns switch s's BFS row, layering the graph from s on first use.
func (x *shortestIndex) row(s int32) *shortestRow {
	r := &x.rows[s]
	r.once.Do(func() {
		buf := make([]int32, 3*x.n)
		depth, count, queue := buf[:x.n], buf[x.n:2*x.n], buf[2*x.n:2*x.n]
		for i := range depth {
			depth[i] = -1
		}
		depth[s], count[s] = 0, 1
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range x.adj[x.off[u]:x.off[u+1]] {
				if depth[v] < 0 {
					depth[v] = depth[u] + 1
					queue = append(queue, v)
				}
				if depth[v] == depth[u]+1 {
					count[v] += count[u]
				}
			}
		}
		poff, pred := make([]int32, x.n+1), make([]int32, 0, len(x.adj)/2)
		for v := range x.n {
			for _, u := range x.adj[x.off[v]:x.off[v+1]] {
				if depth[u] == depth[v]-1 {
					pred = append(pred, u)
				}
			}
			poff[v+1] = int32(len(pred))
		}
		r.depth, r.count, r.poff, r.pred = depth, count, poff, pred
	})
	return r
}

// size returns the number of shortest paths from switch i to switch j and
// their switches in total.
func (x *shortestIndex) size(i, j int32) (paths, hops int) {
	r := x.row(i)
	if r.depth[j] < 0 {
		return 0, 0
	}
	return int(r.count[j]), int(r.count[j]) * int(r.depth[j]+1)
}

// pathWalk appends paths to one backing array by backtracking from a sink
// along the source's predecessor lists.
type pathWalk struct {
	x     *shortestIndex
	src   int32
	row   *shortestRow
	cur   Path // cur[depth[v]] = v for the nodes on the current branch
	nodes []NodeID
	paths []Path
}

// walk appends every shortest path from switch src to switch dst.
func (w *pathWalk) walk(src, dst int32) {
	w.src, w.row = src, w.x.row(src)
	if d := w.row.depth[dst]; d >= 0 {
		w.cur = slices.Grow(w.cur[:0], int(d)+1)[:d+1]
		w.visit(dst)
	}
}

func (w *pathWalk) visit(v int32) {
	w.cur[w.row.depth[v]] = w.x.id[v]
	if v == w.src {
		off := len(w.nodes)
		w.nodes = append(w.nodes, w.cur...)
		w.paths = append(w.paths, w.nodes[off:len(w.nodes):len(w.nodes)])
		return
	}
	for _, u := range w.row.pred[w.row.poff[v]:w.row.poff[v+1]] {
		w.visit(u)
	}
}
