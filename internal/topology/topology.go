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

// Degree returns the number of attached links.
func (n *Node) Degree() int { return len(n.Ports) }

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

// Other returns the endpoint of the link opposite to from.
func (l Link) Other(from NodeID) NodeID {
	if from == l.A {
		return l.B
	}
	return l.A
}

// Topology is an immutable network graph.
type Topology struct {
	Nodes []Node
	Links []Link

	numSwitches int
	numHosts    int
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

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
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
// backwards, predecessors in ascending ID. It performs a BFS layering,
// counting the shortest paths into each node, followed by a DFS over
// predecessor sets. The paths are carved from one backing array, each
// capped at its length.
func (t *Topology) AllShortestPaths(src, dst NodeID) []Path {
	if src == dst {
		return []Path{{src}}
	}
	if !t.IsSwitch(src) || !t.IsSwitch(dst) {
		return nil
	}
	// dist[v] is v's BFS depth (-1 unreached, -2 a host, which no path
	// crosses) and count[v] the number of shortest src→v paths. The BFS
	// stops at the first node of dst's depth: every node nearer src is
	// then expanded, which is all the backtrack reads.
	scratch := make([]int32, 2*len(t.Nodes))
	dist, count := scratch[:len(t.Nodes)], scratch[len(t.Nodes):]
	for i := range dist {
		dist[i] = -1
		if t.Nodes[i].Kind != KindSwitch {
			dist[i] = -2
		}
	}
	dist[src], count[src] = 0, 1
	queue := make([]NodeID, 1, t.numSwitches+1)
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if dist[dst] >= 0 && dist[u] == dist[dst] {
			break
		}
		for _, p := range t.Nodes[u].Ports {
			v := p.Peer
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
			if dist[v] == dist[u]+1 {
				count[v] += count[u]
			}
		}
	}
	if dist[dst] < 0 {
		return nil
	}
	n := int(dist[dst]) + 1
	w := pathWalk{t: t, src: src, dist: dist, cur: make(Path, n),
		nodes: make([]NodeID, int(count[dst])*n), paths: make([]Path, 0, count[dst])}
	w.visit(dst)
	return w.paths
}

// pathWalk is AllShortestPaths' backtrack from dst along strictly
// decreasing distance.
type pathWalk struct {
	t     *Topology
	src   NodeID
	dist  []int32
	cur   Path     // cur[dist[v]] = v for the nodes on the current branch
	nodes []NodeID // the backing array the paths are carved from
	paths []Path
}

func (w *pathWalk) visit(v NodeID) {
	w.cur[w.dist[v]] = v
	if v == w.src {
		off := len(w.paths) * len(w.cur)
		p := w.nodes[off : off+len(w.cur) : off+len(w.cur)]
		copy(p, w.cur)
		w.paths = append(w.paths, p)
		return
	}
	// Deterministic order: ascending neighbor ID.
	var buf [16]NodeID
	prev := buf[:0]
	for _, p := range w.t.Nodes[v].Ports {
		if u := p.Peer; w.dist[u] == w.dist[v]-1 {
			prev = append(prev, u)
		}
	}
	slices.Sort(prev)
	for _, u := range prev {
		w.visit(u)
	}
}

// AllEdgePairPaths enumerates the shortest paths between every ordered pair
// of edge switches (including the trivial one-switch "path" when source and
// sink coincide, which corresponds to intra-rack traffic). The result is
// keyed deterministically in ascending (src, dst) order.
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
	var out []Path
	for _, s := range edges {
		for _, d := range edges {
			if s == d {
				continue
			}
			out = append(out, t.AllShortestPaths(s, d)...)
		}
	}
	return out
}
