package topology

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestBuilderWiring(t *testing.T) {
	b := NewBuilder()
	s0 := b.AddSwitch("s0", LayerEdge)
	s1 := b.AddSwitch("s1", LayerEdge)
	h0 := b.AddHost("h0")
	l0 := b.Connect(s0, s1)
	l1 := b.Connect(s0, h0)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if topo.NumSwitches() != 2 || topo.NumHosts() != 1 {
		t.Fatalf("got %d switches %d hosts", topo.NumSwitches(), topo.NumHosts())
	}
	if l := topo.Links[l0]; l.A != s0 || l.B != s1 {
		t.Errorf("link %d joins %d-%d, want %d-%d", l0, l.A, l.B, s0, s1)
	}
	if p, ok := topo.PortTo(s0, s1); !ok || p != 0 {
		t.Errorf("PortTo(s0,s1) = %d,%v", p, ok)
	}
	if p, ok := topo.PortTo(s0, h0); !ok || p != 1 {
		t.Errorf("PortTo(s0,h0) = %d,%v", p, ok)
	}
	if _, ok := topo.PortTo(s1, h0); ok {
		t.Errorf("PortTo(s1,h0) should not exist")
	}
	_ = l1
}

func TestEdgeSwitchOf(t *testing.T) {
	b := NewBuilder()
	s0 := b.AddSwitch("s0", LayerEdge)
	h0 := b.AddHost("h0")
	b.Connect(s0, h0)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sw, ok := topo.EdgeSwitchOf(h0)
	if !ok || sw != s0 {
		t.Errorf("EdgeSwitchOf(h0) = %d,%v; want %d,true", sw, ok, s0)
	}
	if _, ok := topo.EdgeSwitchOf(s0); ok {
		t.Error("EdgeSwitchOf on a switch should fail")
	}
}

func TestFatTreeSizes(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		ft, err := NewFatTree(k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		wantSwitches := k*k*5/4 + 0
		// (K/2)^2 core + K*K/2 agg + K*K/2 edge.
		wantCore := (k / 2) * (k / 2)
		wantAgg := k * k / 2
		wantEdge := k * k / 2
		wantHosts := k * k * k / 4
		if got := len(ft.CoreIDs); got != wantCore {
			t.Errorf("K=%d: core = %d, want %d", k, got, wantCore)
		}
		if got := len(ft.AggIDs); got != wantAgg {
			t.Errorf("K=%d: agg = %d, want %d", k, got, wantAgg)
		}
		if got := len(ft.EdgeIDs); got != wantEdge {
			t.Errorf("K=%d: edge = %d, want %d", k, got, wantEdge)
		}
		if got := ft.NumSwitches(); got != wantCore+wantAgg+wantEdge {
			t.Errorf("K=%d: switches = %d, want %d", k, got, wantCore+wantAgg+wantEdge)
		}
		if got := ft.NumHosts(); got != wantHosts {
			t.Errorf("K=%d: hosts = %d, want %d", k, got, wantHosts)
		}
		_ = wantSwitches
		if err := ft.Validate(); err != nil {
			t.Errorf("K=%d: Validate: %v", k, err)
		}
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	for _, k := range []int{0, 1, 3, 5, -2} {
		if _, err := NewFatTree(k); err == nil {
			t.Errorf("K=%d: expected error", k)
		}
	}
}

func TestFatTreePortCounts(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// In a K-ary fat-tree every switch has exactly K ports.
	for _, id := range ft.Switches() {
		if d := len(ft.Node(id).Ports); d != 4 {
			t.Errorf("switch %d degree = %d, want 4", id, d)
		}
	}
	for _, id := range ft.Hosts() {
		if d := len(ft.Node(id).Ports); d != 1 {
			t.Errorf("host %d degree = %d, want 1", id, d)
		}
	}
}

func TestAllShortestPathsK4(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// Same-pod edge switches: 2 two-hop... path through each pod agg: 2 paths
	// of 3 switches (edge-agg-edge).
	e0, e1 := ft.EdgeIDs[0], ft.EdgeIDs[1]
	paths := ft.AllShortestPaths(e0, e1)
	if len(paths) != 2 {
		t.Fatalf("same-pod paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p) != 3 {
			t.Errorf("same-pod path len = %d, want 3", len(p))
		}
		if p[0] != e0 || p[2] != e1 {
			t.Errorf("path endpoints wrong: %v", p)
		}
		if ft.Node(p[1]).Layer != LayerAggregation {
			t.Errorf("middle hop not aggregation: %v", p)
		}
	}
	// Cross-pod: 4 paths of 5 switches (edge-agg-core-agg-edge).
	e8 := ft.EdgeIDs[2] // pod 1
	cross := ft.AllShortestPaths(e0, e8)
	if len(cross) != 4 {
		t.Fatalf("cross-pod paths = %d, want 4", len(cross))
	}
	for _, p := range cross {
		if len(p) != 5 {
			t.Errorf("cross-pod path len = %d, want 5", len(p))
		}
		if ft.Node(p[2]).Layer != LayerCore {
			t.Errorf("middle hop not core: %v", p)
		}
	}
}

// referenceShortestPaths is AllShortestPaths as it was before the BFS
// stopped at dst's depth and the paths shared one backing array: a full
// BFS, then a DFS that sorts each node's predecessors and allocates every
// path on its own.
func referenceShortestPaths(t *Topology, src, dst NodeID) []Path {
	if src == dst {
		return []Path{{src}}
	}
	dist := make([]int32, len(t.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			continue
		}
		for _, p := range t.Nodes[u].Ports {
			v := p.Peer
			if t.Nodes[v].Kind != KindSwitch {
				continue
			}
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	if dist[dst] == -1 {
		return nil
	}
	var paths []Path
	cur := make(Path, 0, dist[dst]+1)
	var dfs func(v NodeID)
	dfs = func(v NodeID) {
		cur = append(cur, v)
		if v == src {
			rev := make(Path, len(cur))
			for i := range cur {
				rev[i] = cur[len(cur)-1-i]
			}
			paths = append(paths, rev)
		} else {
			var prev []NodeID
			for _, p := range t.Nodes[v].Ports {
				u := p.Peer
				if t.Nodes[u].Kind == KindSwitch && dist[u] == dist[v]-1 {
					prev = append(prev, u)
				}
			}
			sort.Slice(prev, func(i, j int) bool { return prev[i] < prev[j] })
			for _, u := range prev {
				dfs(u)
			}
		}
		cur = cur[:len(cur)-1]
	}
	dfs(dst)
	return paths
}

// TestAllShortestPathsMatchesReference: the enumeration returns the same
// paths in the same order as the reference, on every k=4 node pair (edge
// pairs, the other switches, and hosts, which reach nothing but
// themselves) and on a sample of k=16 edge pairs, and every path is capped
// at its length, so appending to one cannot overwrite the next.
func TestAllShortestPathsMatchesReference(t *testing.T) {
	check := func(ft *FatTree, src, dst NodeID) {
		t.Helper()
		got, want := ft.AllShortestPaths(src, dst), referenceShortestPaths(ft.Topology, src, dst)
		if len(got) != len(want) {
			t.Fatalf("k=%d s%d→s%d: %d paths, reference %d", ft.K, src, dst, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) || cap(got[i]) != len(got[i]) {
				t.Fatalf("k=%d s%d→s%d path %d: %v (cap %d), reference %v", ft.K, src, dst, i, got[i], cap(got[i]), want[i])
			}
		}
	}
	k4, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	for src := range k4.Nodes {
		for dst := range k4.Nodes {
			check(k4, NodeID(src), NodeID(dst))
		}
	}
	k16, err := NewFatTree(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(k16.EdgeIDs); i += 7 {
		for j := 3; j < len(k16.EdgeIDs); j += 11 {
			check(k16, k16.EdgeIDs[i], k16.EdgeIDs[j])
		}
	}
}

// TestAllEdgePairPathsMatchesPerPair: AllEdgePairPaths is the per-pair
// AllShortestPaths results concatenated in ascending (src, dst) order, path
// for path, each path capped at its length. At k=4 and k=8 every pair is
// compared; at k=16 every pair's run is delimited by its endpoints and a
// stride of pairs is compared in full.
func TestAllEdgePairPathsMatchesPerPair(t *testing.T) {
	for _, tc := range []struct{ k, stride int }{{4, 1}, {8, 1}, {16, 97}} {
		ft, err := NewFatTree(tc.k)
		if err != nil {
			t.Fatal(err)
		}
		all, next, pair := ft.AllEdgePairPaths(), 0, 0
		for _, s := range ft.EdgeIDs {
			for _, d := range ft.EdgeIDs {
				if s == d {
					continue
				}
				start := next
				for next < len(all) && all[next][0] == s && all[next][len(all[next])-1] == d {
					if cap(all[next]) != len(all[next]) {
						t.Fatalf("k=%d s%d→s%d: path %v has cap %d", tc.k, s, d, all[next], cap(all[next]))
					}
					next++
				}
				if pair++; pair%tc.stride != 0 {
					if next == start {
						t.Fatalf("k=%d s%d→s%d: no paths", tc.k, s, d)
					}
					continue
				}
				want := ft.AllShortestPaths(s, d)
				if got := all[start:next]; len(got) != len(want) {
					t.Fatalf("k=%d s%d→s%d: %d paths, AllShortestPaths has %d", tc.k, s, d, len(got), len(want))
				}
				for i, p := range want {
					if !all[start+i].Equal(p) {
						t.Fatalf("k=%d s%d→s%d path %d: %v, AllShortestPaths has %v", tc.k, s, d, i, all[start+i], p)
					}
				}
			}
		}
		if next != len(all) {
			t.Fatalf("k=%d: %d paths after the last pair", tc.k, len(all)-next)
		}
	}
}

// TestShortestIndexConcurrentFirstUse: a topology is shared across
// goroutines and builds its path index, and each source's row, on first
// use. Goroutines that race to that first use all see the paths a
// sequential enumeration of another copy sees (go test -race checks the
// rest).
func TestShortestIndexConcurrentFirstUse(t *testing.T) {
	shared, err := NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.AllEdgePairPaths()
	var wg sync.WaitGroup
	got := make([][]Path, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				got[g] = shared.AllEdgePairPaths()
				return
			}
			for _, s := range shared.EdgeIDs {
				for _, d := range shared.EdgeIDs {
					if s != d {
						got[g] = append(got[g], shared.AllShortestPaths(s, d)...)
					}
				}
			}
		}()
	}
	wg.Wait()
	for g, paths := range got {
		if !slices.EqualFunc(paths, want, Path.Equal) {
			t.Errorf("goroutine %d enumerated %d paths that differ from a sequential run's %d", g, len(paths), len(want))
		}
	}
}

func TestAllShortestPathsTrivial(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	p := ft.AllShortestPaths(ft.EdgeIDs[0], ft.EdgeIDs[0])
	if len(p) != 1 || len(p[0]) != 1 {
		t.Fatalf("self path = %v", p)
	}
}

func TestAllEdgePairPathsK4Count(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// Shortest paths between ordered pairs of edge switches, by hop count.
	counts := make(map[int]int)
	for _, p := range ft.AllEdgePairPaths() {
		counts[len(p)]++
	}
	// Ordered pairs: 8 edge switches. Same-pod ordered pairs: 8 (4 pods x 2
	// ordered pairs), each with 2 three-switch paths = 16. Cross-pod ordered
	// pairs: 8*7-8 = 48, each with 4 five-switch paths = 192.
	if counts[3] != 16 {
		t.Errorf("3-switch paths = %d, want 16", counts[3])
	}
	if counts[5] != 192 {
		t.Errorf("5-switch paths = %d, want 192", counts[5])
	}
	if total := counts[3] + counts[5]; total != 208 {
		t.Errorf("total ordered paths = %d, want 208", total)
	}
}

func TestPathContains(t *testing.T) {
	p := Path{3, 2, 4}
	cases := []struct {
		sub  []NodeID
		want bool
	}{
		{[]NodeID{}, true},
		{[]NodeID{3}, true},
		{[]NodeID{2}, true},
		{[]NodeID{4}, true},
		{[]NodeID{3, 2}, true},
		{[]NodeID{2, 4}, true},
		{[]NodeID{3, 4}, false},
		{[]NodeID{4, 2}, false},
		{[]NodeID{3, 2, 4}, true},
		{[]NodeID{3, 2, 4, 5}, false},
	}
	for _, c := range cases {
		if got := p.Contains(c.sub); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.sub, got, c.want)
		}
	}
}

func TestPathEqual(t *testing.T) {
	p := Path{1, 2, 3}
	if !p.Equal(Path{1, 2, 3}) {
		t.Fatal("equal paths compared different")
	}
	if p.Equal(Path{9, 2, 3}) {
		t.Fatal("different paths compared equal")
	}
	if p.Equal(Path{1, 2}) {
		t.Fatal("different lengths compared equal")
	}
}

func TestPathString(t *testing.T) {
	if s := (Path{1, 2}).String(); s != "<s1,s2>" {
		t.Errorf("String = %q", s)
	}
}

// Property: every enumerated shortest path is simple (no repeated switch)
// and starts/ends at the query endpoints.
func TestShortestPathsPropertySimple(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		src := ft.EdgeIDs[int(a)%len(ft.EdgeIDs)]
		dst := ft.EdgeIDs[int(b)%len(ft.EdgeIDs)]
		for _, p := range ft.AllShortestPaths(src, dst) {
			if p[0] != src || p[len(p)-1] != dst {
				return false
			}
			seen := make(map[NodeID]bool)
			for _, n := range p {
				if seen[n] {
					return false
				}
				seen[n] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: all shortest paths between the same pair have the same length.
func TestShortestPathsPropertyEqualLength(t *testing.T) {
	ft, err := NewFatTree(6)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		src := ft.EdgeIDs[int(a)%len(ft.EdgeIDs)]
		dst := ft.EdgeIDs[int(b)%len(ft.EdgeIDs)]
		ps := ft.AllShortestPaths(src, dst)
		if len(ps) == 0 {
			return src == dst // only unreachable case would be a bug
		}
		want := len(ps[0])
		for _, p := range ps {
			if len(p) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPodOf(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := ft.PodOf(ft.EdgeIDs[0]); got != 0 {
		t.Errorf("PodOf(edge0) = %d", got)
	}
	if got := ft.PodOf(ft.EdgeIDs[3]); got != 1 {
		t.Errorf("PodOf(edge3) = %d", got)
	}
	if got := ft.PodOf(ft.AggIDs[5]); got != 2 {
		t.Errorf("PodOf(agg5) = %d", got)
	}
	if got := ft.PodOf(ft.CoreIDs[0]); got != -1 {
		t.Errorf("PodOf(core0) = %d", got)
	}
}
