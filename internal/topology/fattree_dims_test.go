package topology

import "testing"

// TestFatTreeDimsClosedForm validates the fat-tree constructor at k=4 to
// k=32 against the closed-form counts of a K-ary fat tree: (K/2)^2 core,
// K·K/2 aggregation and K·K/2 edge switches (5K^2/4 in all), K^3/4 hosts,
// and K^3/4 links at each tier boundary (core-agg, agg-edge, edge-host).
// The ECMP shortest paths between edge switches are K/2 inside a pod (one
// per aggregation switch) and (K/2)^2 across pods (one per core switch).
// Path counts are checked by BFS on sampled pairs rather than
// AllEdgePairPaths, which enumerates tens of millions of paths at k=32.
func TestFatTreeDimsClosedForm(t *testing.T) {
	for _, k := range []int{4, 8, 16, 32} {
		ft, err := NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		half := k / 2
		tierLinks := k * half * half // = K^3/4
		if got := len(ft.CoreIDs); got != half*half {
			t.Errorf("k=%d: %d core switches, want %d", k, got, half*half)
		}
		if got := len(ft.AggIDs); got != k*half {
			t.Errorf("k=%d: %d aggregation switches, want %d", k, got, k*half)
		}
		if got := len(ft.EdgeIDs); got != k*half {
			t.Errorf("k=%d: %d edge switches, want %d", k, got, k*half)
		}
		if got := ft.NumSwitches(); got != 5*k*k/4 {
			t.Errorf("k=%d: %d switches, want %d (=5K^2/4)", k, got, 5*k*k/4)
		}
		if got := ft.NumHosts(); got != tierLinks {
			t.Errorf("k=%d: %d hosts, want %d (=K^3/4)", k, got, tierLinks)
		}
		if got := len(ft.Links); got != 3*tierLinks {
			t.Errorf("k=%d: %d links, want %d (=3K^3/4)", k, got, 3*tierLinks)
		}
		var coreAgg, aggEdge, host int
		for _, l := range ft.Links {
			a, b := ft.Node(l.A).Layer, ft.Node(l.B).Layer
			switch {
			case !ft.IsSwitch(l.A) || !ft.IsSwitch(l.B):
				host++
			case a == LayerCore || b == LayerCore:
				coreAgg++
			default:
				aggEdge++
			}
		}
		if coreAgg != tierLinks || aggEdge != tierLinks || host != tierLinks {
			t.Errorf("k=%d: link tiers (%d,%d,%d), want %d each", k, coreAgg, aggEdge, host, tierLinks)
		}

		samePod := ft.AllShortestPaths(ft.EdgeIDs[0], ft.EdgeIDs[1])
		if len(samePod) != half {
			t.Errorf("k=%d: %d same-pod paths, want %d", k, len(samePod), half)
		}
		for _, p := range samePod {
			if len(p) != 3 {
				t.Fatalf("k=%d: same-pod path has %d hops, want 3: %v", k, len(p), p)
			}
		}
		crossPod := ft.AllShortestPaths(ft.EdgeIDs[0], ft.EdgeIDs[len(ft.EdgeIDs)-1])
		if len(crossPod) != half*half {
			t.Errorf("k=%d: %d cross-pod paths, want %d", k, len(crossPod), half*half)
		}
		for _, p := range crossPod {
			if len(p) != 5 {
				t.Fatalf("k=%d: cross-pod path has %d hops, want 5: %v", k, len(p), p)
			}
		}
	}
}
