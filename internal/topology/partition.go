package topology

import "fmt"

// Partition assigns every node to a simulation unit. Units are the
// granularity of the simulator's event order (internal/netsim): all state
// a packet event touches belongs to exactly one unit, and events are
// stamped, seeded and numbered per unit, so any grouping of units under
// hook owners observes the same trace. The unit map must therefore be
// derived from the topology alone — never from the owner count.
type Partition struct {
	// UnitOf maps NodeID -> unit index.
	UnitOf []int32
	// NumUnits is 1 + max(UnitOf).
	NumUnits int
}

// SingleUnit places every node in unit 0: the partition netsim.New runs
// on, where the event order is plain scheduling order.
func SingleUnit(t *Topology) *Partition {
	return &Partition{UnitOf: make([]int32, len(t.Nodes)), NumUnits: 1}
}

// Validate checks the unit map covers exactly the topology's nodes with
// indices in [0, NumUnits).
func (p *Partition) Validate(t *Topology) error {
	if len(p.UnitOf) != len(t.Nodes) {
		return fmt.Errorf("topology: partition covers %d nodes, topology has %d", len(p.UnitOf), len(t.Nodes))
	}
	if p.NumUnits < 1 {
		return fmt.Errorf("topology: partition must have at least one unit, got %d", p.NumUnits)
	}
	for id, u := range p.UnitOf {
		if u < 0 || int(u) >= p.NumUnits {
			return fmt.Errorf("topology: node %d assigned out-of-range unit %d (NumUnits=%d)", id, u, p.NumUnits)
		}
		if t.IsHost(NodeID(id)) {
			if sw, ok := t.EdgeSwitchOf(NodeID(id)); ok && p.UnitOf[sw] != u {
				return fmt.Errorf("topology: host %d in unit %d but its edge switch %d is in unit %d", id, u, sw, p.UnitOf[sw])
			}
		}
	}
	return nil
}

// PodPartition maps a fat-tree onto its natural sharding units: pod p is
// unit p (aggregation + edge switches and their hosts), and the (K/2)^2
// core switches form K/2 additional units of K/2 cores each — core stripe
// c (the cores reached by aggregation position c of every pod) is unit
// K + c. Total units: K + K/2.
//
// Every host shares a unit with its edge switch, so the only events that
// cross units are link propagations between switches.
func (ft *FatTree) PodPartition() *Partition {
	half := ft.K / 2
	p := &Partition{
		UnitOf:   make([]int32, len(ft.Nodes)),
		NumUnits: ft.K + half,
	}
	for i, id := range ft.CoreIDs {
		p.UnitOf[id] = int32(ft.K + i/half)
	}
	for i, id := range ft.AggIDs {
		p.UnitOf[id] = int32(i / half)
	}
	for i, id := range ft.EdgeIDs {
		p.UnitOf[id] = int32(i / half)
	}
	for _, h := range ft.HostIDs {
		sw, ok := ft.EdgeSwitchOf(h)
		if !ok {
			panic(fmt.Sprintf("topology: fat-tree host %d has no edge switch", h))
		}
		p.UnitOf[h] = p.UnitOf[sw]
	}
	return p
}
