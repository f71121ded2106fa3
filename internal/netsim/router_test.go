package netsim

import (
	"slices"
	"testing"
	"unsafe"

	"mars/internal/topology"
)

// refRouter is the routing rule written out the slow way, for the
// differential test: candidates straight from switch-graph distances in
// ascending next-hop order, and the weighted pick walked with every weight
// looked up — the arithmetic Route had before its table was compacted.
type refRouter struct {
	topo    *topology.Topology
	salt    uint64
	dist    map[topology.NodeID]map[topology.NodeID]int // dist[edge][sw], switch hops
	weights map[topology.NodeID]map[topology.NodeID]int32
}

func newRefRouter(topo *topology.Topology, salt uint64) *refRouter {
	ref := &refRouter{topo: topo, salt: salt,
		dist:    map[topology.NodeID]map[topology.NodeID]int{},
		weights: map[topology.NodeID]map[topology.NodeID]int32{},
	}
	for _, h := range topo.Hosts() {
		edge, _ := topo.EdgeSwitchOf(h)
		if ref.dist[edge] != nil {
			continue
		}
		d := map[topology.NodeID]int{edge: 0}
		for queue := []topology.NodeID{edge}; len(queue) > 0; queue = queue[1:] {
			for _, v := range topo.Neighbors(queue[0]) {
				if _, seen := d[v]; !seen && topo.IsSwitch(v) {
					d[v] = d[queue[0]] + 1
					queue = append(queue, v)
				}
			}
		}
		ref.dist[edge] = d
	}
	return ref
}

func (ref *refRouter) nextHops(sw, dst topology.NodeID) []topology.NodeID {
	edge, _ := ref.topo.EdgeSwitchOf(dst)
	var hops []topology.NodeID
	for _, v := range ref.topo.Neighbors(sw) {
		if d, ok := ref.dist[edge][v]; ok && ref.topo.IsSwitch(v) && d == ref.dist[edge][sw]-1 {
			hops = append(hops, v)
		}
	}
	slices.Sort(hops)
	return slices.Compact(hops)
}

func (ref *refRouter) weight(sw, via topology.NodeID) int64 {
	if w, ok := ref.weights[sw][via]; ok {
		return int64(w)
	}
	return 1
}

// route picks the egress port at sw toward dst; hops is nextHops(sw, dst).
func (ref *refRouter) route(sw, dst topology.NodeID, hops []topology.NodeID, flow FlowKey) (topology.PortID, bool) {
	if edge, _ := ref.topo.EdgeSwitchOf(dst); sw == edge {
		return ref.topo.PortTo(sw, dst)
	}
	if len(hops) == 0 {
		return 0, false
	}
	var total int64
	for _, v := range hops {
		total += ref.weight(sw, v)
	}
	h := splitmix64(uint64(flow) ^ ref.salt ^ uint64(sw)*0x9E3779B97F4A7C15)
	pick := int64(h % uint64(total))
	for _, v := range hops {
		if pick -= ref.weight(sw, v); pick < 0 {
			return ref.topo.PortTo(sw, v)
		}
	}
	panic("unreachable: pick < total")
}

// TestRouteMatchesReference: for every (switch, destination host) and 64
// flow keys, Route and NextHops equal the reference — with even weights
// (the modulo shortcut), with skews at an edge and at an aggregation switch
// (the weighted walk), and after RestoreWeights and ResetWeights put the
// even split back. At k=16, where the dense distance tables are largest,
// NextHops equals the reference on a stride of switches × hosts.
func TestRouteMatchesReference(t *testing.T) {
	k16, err := topology.NewFatTree(16)
	if err != nil {
		t.Fatal(err)
	}
	r16, ref16 := NewECMPRouter(k16.Topology, 1), newRefRouter(k16.Topology, 1)
	switches := k16.Switches()
	for i := 0; i < len(switches); i += 3 {
		for j := i % 7; j < len(k16.HostIDs); j += 7 {
			sw, dst := switches[i], k16.HostIDs[j]
			if got, want := r16.NextHops(sw, dst), ref16.nextHops(sw, dst); !slices.Equal(got, want) {
				t.Fatalf("k=16: NextHops(%d, %d) = %v, want %v", sw, dst, got, want)
			}
		}
	}

	for _, k := range []int{4, 8} {
		ft, err := topology.NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		const salt = 0xfeed
		r := NewECMPRouter(ft.Topology, salt)
		ref := newRefRouter(ft.Topology, salt)
		compare := func(phase string) {
			t.Helper()
			for _, sw := range ft.Switches() {
				for _, dst := range ft.HostIDs {
					want := ref.nextHops(sw, dst)
					if got := r.NextHops(sw, dst); !slices.Equal(got, want) {
						t.Fatalf("k=%d %s: NextHops(%d, %d) = %v, want %v", k, phase, sw, dst, got, want)
					}
					for f := 0; f < 64; f++ {
						flow := FlowKey(splitmix64(uint64(f)))
						wantPort, wantOK := ref.route(sw, dst, want, flow)
						port, ok := r.Route(sw, &Packet{Dst: dst, Flow: flow})
						if port != wantPort || ok != wantOK {
							t.Fatalf("k=%d %s: Route(%d, dst=%d flow=%#x) = %d,%v, want %d,%v",
								k, phase, sw, dst, flow, port, ok, wantPort, wantOK)
						}
					}
				}
			}
		}
		set := func(sw, via topology.NodeID, w int32) {
			r.SetWeight(sw, via, w)
			if ref.weights[sw] == nil {
				ref.weights[sw] = map[topology.NodeID]int32{}
			}
			ref.weights[sw][via] = w
		}
		compare("even")

		edge, agg := ft.EdgeIDs[1], ft.AggIDs[k/2]
		farHost := ft.HostIDs[len(ft.HostIDs)-1]
		set(edge, r.NextHops(edge, farHost)[0], 4)
		compare("edge skew")
		cores := r.NextHops(agg, ft.HostIDs[0])
		set(agg, cores[1], 10)
		saved := r.WeightsAt(agg)
		set(agg, cores[0], 3)
		compare("edge and agg skew")

		r.RestoreWeights(agg, saved)
		delete(ref.weights[agg], cores[0])
		compare("agg restored to its first skew")
		r.ResetWeights(edge)
		r.ResetWeights(agg)
		clear(ref.weights)
		compare("reset")
	}
}

// TestCandidateTableStaysCompact: the table Route reads on every hop is
// switches × edge switches of 8-byte spans over interned lists. At k=16
// that is a few hundred KB; a node²-indexed layout (43 MB of slice headers,
// one cache miss per hop) would not pass.
func TestCandidateTableStaysCompact(t *testing.T) {
	if unsafe.Sizeof(span{}) != 8 || unsafe.Sizeof(nextHop{}) != 8 {
		t.Fatalf("sizeof(span)=%d sizeof(nextHop)=%d, the size below assumes 8 and 8", unsafe.Sizeof(span{}), unsafe.Sizeof(nextHop{}))
	}
	ft, err := topology.NewFatTree(16)
	if err != nil {
		t.Fatal(err)
	}
	r := NewECMPRouter(ft.Topology, 1)
	if size := len(r.spans)*8 + len(r.hops)*8; size >= 1<<20 {
		t.Errorf("k=16 candidate table is %d bytes (%d spans, %d hops), want < 1 MiB", size, len(r.spans), len(r.hops))
	}
}

// TestPacketStaysCompact: every hop touches the packet, and the pool holds
// one per packet in flight (tens of thousands at k=16). A per-hop slice
// nothing reads costs 24 bytes here plus an append per hop; 128 bytes (the
// size with two of them) would not pass.
func TestPacketStaysCompact(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 96 {
		t.Errorf("sizeof(Packet) = %d, want <= 96", size)
	}
}

// BenchmarkNewECMPRouter times the router's construction over a k=16 fat
// tree: the distances toward each of its 128 edge switches and the
// interned candidate list of every (switch, edge switch) pair.
func BenchmarkNewECMPRouter(b *testing.B) {
	ft, err := topology.NewFatTree(16)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("K16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewECMPRouter(ft.Topology, uint64(i))
		}
	})
}
