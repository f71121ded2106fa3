package dataplane

import (
	"testing"

	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// Hot-path microbenchmarks. These four series (together with
// BenchmarkNetsimStep in internal/netsim) are the CI bench-gate's
// regression surface: stable names, b.ReportAllocs, no setup inside the
// timed region. Allocation counts are pinned separately by
// TestHotPathAllocs.

// benchEnv builds the K=4 evaluation substrate once per benchmark.
func benchEnv(b *testing.B) (*Program, *netsim.Simulator, *topology.FatTree) {
	b.Helper()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultProgramConfig()
	table, err := pathid.BuildTable(cfg.PathCfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		b.Fatal(err)
	}
	prog := New(cfg, ft.Topology, table, nil)
	router := netsim.NewECMPRouter(ft.Topology, 1)
	sim := netsim.New(ft.Topology, router, prog, netsim.DefaultConfig(), 1)
	return prog, sim, ft
}

// transitHop locates an aggregation switch with a switch-facing ingress
// and egress port, the shape of every mid-path hop.
func transitHop(b *testing.B, ft *topology.FatTree) (sw topology.NodeID, in, out topology.PortID) {
	b.Helper()
	topo := ft.Topology
	for _, cand := range topo.Switches() {
		if topo.Node(cand).Layer != topology.LayerAggregation {
			continue
		}
		in, out = -1, -1
		for i, p := range topo.Node(cand).Ports {
			if !topo.IsSwitch(p.Peer) {
				continue
			}
			if topo.Node(p.Peer).Layer == topology.LayerEdge && in < 0 {
				in = topology.PortID(i)
			}
			if topo.Node(p.Peer).Layer == topology.LayerCore && out < 0 {
				out = topology.PortID(i)
			}
		}
		if in >= 0 && out >= 0 {
			return cand, in, out
		}
	}
	b.Fatal("no transit hop found")
	return 0, 0, 0
}

// BenchmarkPerHopFold measures the per-hop cost of a telemetry packet at a
// transit switch: the PathID hash fold, the codec's queue-depth
// accumulation, and the latency-threshold check.
func BenchmarkPerHopFold(b *testing.B) {
	prog, sim, ft := benchEnv(b)
	sw, in, out := transitHop(b, ft)
	srcEdge := ft.Topology.Switches()[0]
	pkt := &netsim.Packet{ID: 1, Flow: 7, Size: 700}
	meta := &PacketMeta{SourceSwitch: srcEdge}
	meta.INT = &INTHeader{SourceTS: 0, EpochID: 0}
	pkt.Meta = meta
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.OnForward(sim, sw, in, out, pkt, 5)
	}
}

// BenchmarkPromote measures the source-switch promotion machinery: the
// Ingress Table fold (epoch counter roll + count) and the codec's
// promotion decision, with the epoch advancing every op so each call takes
// the telemetry-packet branch.
func BenchmarkPromote(b *testing.B) {
	prog, _, ft := benchEnv(b)
	sink := ft.Topology.Switches()[1]
	flow := FlowID{Src: ft.Topology.Switches()[0], Sink: sink}
	it := NewIngressTable(len(ft.Topology.Nodes))
	cdc := prog.cdc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := uint32(i)
		mark, _ := it.Record(sink, e, 700)
		if mark {
			cdc.Promote(flow, e)
		}
	}
}

// BenchmarkSinkRecord measures the sink-switch record fold: the Egress
// Table per-flow and per-path counter updates, the previous-epoch reads,
// and the Ring Table push.
func BenchmarkSinkRecord(b *testing.B) {
	_, _, ft := benchEnv(b)
	src := ft.Topology.Switches()[0]
	sink := ft.Topology.Switches()[1]
	flow := FlowID{Src: src, Sink: sink}
	et := NewEgressTable(len(ft.Topology.Nodes))
	rt := NewRingTable(512)
	path := pathid.ID(0x5a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := uint32(i >> 6)
		et.Record(src, path, e, 700)
		sc := et.FlowLastEpochCount(src, e)
		pc, pb := et.PathLastEpoch(src, path, e)
		rt.Push(RTRecord{
			Flow: flow, PathID: path, Epoch: e,
			SourceCount: sc, SinkCount: sc, PathCount: pc, PathBytes: pb,
		})
	}
}
