package topology

import "testing"

// TestPodPartition pins the unit map: pods are units 0..K-1, core stripes
// K..K+K/2-1, hosts share their edge switch's unit, and every cross-unit
// link connects two switches, so cross-unit events are always link
// propagations.
func TestPodPartition(t *testing.T) {
	for _, k := range []int{4, 16} {
		ft, err := NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		p := ft.PodPartition()
		if err := p.Validate(ft.Topology); err != nil {
			t.Fatal(err)
		}
		half := k / 2
		if p.NumUnits != k+half {
			t.Fatalf("k=%d: %d units, want %d pods + %d core stripes", k, p.NumUnits, k, half)
		}
		perUnit := make([]int, p.NumUnits)
		for _, u := range p.UnitOf {
			perUnit[u]++
		}
		for u, n := range perUnit {
			want := 2*half + half*half // agg + edge + hosts per pod
			if u >= k {
				want = half // cores per stripe
			}
			if n != want {
				t.Errorf("k=%d: unit %d holds %d nodes, want %d", k, u, n, want)
			}
		}
		for i, a := range ft.AggIDs {
			if got := p.UnitOf[a]; got != int32(i/half) {
				t.Errorf("k=%d: agg %d in unit %d, want pod %d", k, a, got, i/half)
			}
		}
		for _, l := range ft.Links {
			if p.UnitOf[l.A] != p.UnitOf[l.B] && (!ft.IsSwitch(l.A) || !ft.IsSwitch(l.B)) {
				t.Errorf("k=%d: host link %d-%d crosses units %d/%d",
					k, l.A, l.B, p.UnitOf[l.A], p.UnitOf[l.B])
			}
		}
	}
}

// TestSingleUnitPartition checks the degenerate map used by the
// classic-equivalence tests.
func TestSingleUnitPartition(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	p := SingleUnit(ft.Topology)
	if err := p.Validate(ft.Topology); err != nil {
		t.Fatal(err)
	}
	if p.NumUnits != 1 {
		t.Fatalf("NumUnits = %d, want 1", p.NumUnits)
	}
	for id, u := range p.UnitOf {
		if u != 0 {
			t.Fatalf("node %d in unit %d, want 0", id, u)
		}
	}
}
