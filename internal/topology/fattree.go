package topology

import "fmt"

// FatTree describes a K-ary fat-tree topology (Al-Fares et al.), the
// structure used by the paper's Mininet evaluation (Fig. 6 is the K=4
// instance: 4 core, 8 aggregation, 8 edge switches, 16 hosts).
type FatTree struct {
	*Topology
	// K is the arity; must be even and >= 2.
	K int
	// CoreIDs, AggIDs, EdgeIDs, HostIDs list the node IDs per tier in
	// construction order.
	CoreIDs []NodeID
	AggIDs  []NodeID
	EdgeIDs []NodeID
	HostIDs []NodeID
}

// NewFatTree builds a K-ary fat-tree:
//
//   - (K/2)^2 core switches
//   - K pods, each with K/2 aggregation and K/2 edge switches
//   - each edge switch hosts K/2 end hosts
//
// Total: K^2*5/4 switches and K^3/4 hosts.
func NewFatTree(k int) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree arity must be even and >= 2, got %d", k)
	}
	b := NewBuilder()
	ft := &FatTree{K: k}
	half := k / 2

	for i := 0; i < half*half; i++ {
		ft.CoreIDs = append(ft.CoreIDs, b.AddSwitch(fmt.Sprintf("core%d", i), LayerCore))
	}
	for pod := 0; pod < k; pod++ {
		podAggs := make([]NodeID, 0, half)
		for a := 0; a < half; a++ {
			id := b.AddSwitch(fmt.Sprintf("agg%d_%d", pod, a), LayerAggregation)
			ft.AggIDs = append(ft.AggIDs, id)
			podAggs = append(podAggs, id)
			// Aggregation switch a of each pod connects to core switches
			// a*half .. a*half+half-1.
			for c := 0; c < half; c++ {
				b.Connect(id, ft.CoreIDs[a*half+c])
			}
		}
		for e := 0; e < half; e++ {
			id := b.AddSwitch(fmt.Sprintf("edge%d_%d", pod, e), LayerEdge)
			ft.EdgeIDs = append(ft.EdgeIDs, id)
			for _, agg := range podAggs {
				b.Connect(id, agg)
			}
			for h := 0; h < half; h++ {
				hid := b.AddHost(fmt.Sprintf("h%d_%d_%d", pod, e, h))
				ft.HostIDs = append(ft.HostIDs, hid)
				b.Connect(id, hid)
			}
		}
	}
	t, err := b.Build()
	if err != nil {
		return nil, err
	}
	ft.Topology = t
	return ft, nil
}

// PodOf returns the pod index of an aggregation or edge switch, or -1 for
// core switches and hosts.
func (ft *FatTree) PodOf(id NodeID) int {
	half := ft.K / 2
	for i, a := range ft.AggIDs {
		if a == id {
			return i / half
		}
	}
	for i, e := range ft.EdgeIDs {
		if e == id {
			return i / half
		}
	}
	return -1
}
