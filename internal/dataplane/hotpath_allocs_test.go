package dataplane

import (
	"testing"

	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// These guards pin the program's per-packet allocation counts at exact
// constants (zero throughout). They are the teeth behind the hot-path
// benchmarks: a regression here fails `go test` everywhere, not just the
// CI bench-gate. If one fails, fix the offending change — do not raise
// the pin.

func allocEnv(t *testing.T) (*Program, *netsim.Simulator, *topology.FatTree) {
	t.Helper()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultProgramConfig()
	table, err := pathid.BuildTable(cfg.PathCfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		t.Fatal(err)
	}
	prog := New(cfg, ft.Topology, table, nil)
	router := netsim.NewECMPRouter(ft.Topology, 1)
	sim := netsim.New(ft.Topology, router, prog, netsim.DefaultConfig(), 1)
	return prog, sim, ft
}

// TestPerHopFoldAllocs pins the transit-hop telemetry fold (PathID hash
// chain, queue-depth accumulation, codec hook, threshold check) at zero
// allocations per packet.
func TestPerHopFoldAllocs(t *testing.T) {
	prog, sim, ft := allocEnv(t)
	sw, in, out := transitHop(t, ft)
	pkt := &netsim.Packet{ID: 1, Flow: 7, Size: 700}
	meta := &PacketMeta{SourceSwitch: ft.Topology.Switches()[0]}
	meta.INT = &meta.hdr
	pkt.Meta = meta
	avg := testing.AllocsPerRun(500, func() {
		prog.OnForward(sim, sw, in, out, pkt, 5)
	})
	if avg != 0 {
		t.Errorf("per-hop fold allocates %.2f objects/op, want 0", avg)
	}
}

// TestPromoteAllocs pins the source-switch promotion path (Ingress Table
// epoch-counter fold plus the codec's stride check) at zero allocations
// per packet, with the epoch advancing every call so each run takes the
// telemetry-packet branch.
func TestPromoteAllocs(t *testing.T) {
	prog, _, ft := allocEnv(t)
	sink := prog.ord[ft.EdgeIDs[1]]
	it := NewIngressTable(prog.edges)
	e, promoted := uint32(0), 0
	avg := testing.AllocsPerRun(500, func() {
		if mark, _ := it.Record(sink, e, 700); mark && e%prog.stride == 0 {
			promoted++
		}
		e++
	})
	if avg != 0 {
		t.Errorf("promote path allocates %.2f objects/op, want 0", avg)
	}
	if promoted == 0 {
		t.Error("no epoch promoted a telemetry packet")
	}
}

// TestSinkRecordAllocs pins the sink-switch record fold (Egress Table
// per-flow and per-path counters, previous-epoch reads, Ring Table push)
// at zero allocations per packet once the flow's table slots exist.
func TestSinkRecordAllocs(t *testing.T) {
	prog, _, ft := allocEnv(t)
	flow := FlowID{Src: ft.EdgeIDs[0], Sink: ft.EdgeIDs[1]}
	src := prog.ord[flow.Src]
	et := NewEgressTable(prog.edges)
	rt := NewRingTable(512)
	path := pathid.ID(0x5a)
	et.Record(src, path, 0, 700) // create the per-path map entry
	i := uint32(0)
	avg := testing.AllocsPerRun(500, func() {
		e := i >> 6
		et.Record(src, path, e, 700)
		sc := et.FlowLastEpochCount(src, e)
		pc, pb := et.PathLastEpoch(src, path, e)
		rt.Push(RTRecord{
			Flow: flow, PathID: path, Epoch: e,
			SourceCount: sc, SinkCount: sc, PathCount: pc, PathBytes: pb,
		})
		i++
	})
	if avg != 0 {
		t.Errorf("sink record allocates %.2f objects/op, want 0", avg)
	}
}

// TestTelemetrySinkAllocs pins a telemetry packet's sink hop at zero
// allocations: the Ring Table record is built, checked for drops and
// pushed by value. Each measured packet is its flow's first in a new
// epoch, so the source promotes every one and every one is recorded at
// its sink — the path TestProgramSteadyStateAllocs's back-to-back packets
// never take.
func TestTelemetrySinkAllocs(t *testing.T) {
	prog, sim, ft := allocEnv(t)
	src, dst := ft.HostIDs[0], ft.HostIDs[len(ft.HostIDs)-1]
	send := func() {
		sim.Run(netsim.Time(prog.EpochOf(sim.Now())+1) * EpochDuration)
		sim.Send(sim.Now(), src, dst, 1, 700)
		sim.RunAll()
	}
	for i := 0; i < 4; i++ {
		send()
	}
	const runs = 200
	before := prog.Stats.TelemetryPackets
	avg := testing.AllocsPerRun(runs, send)
	if got := prog.Stats.TelemetryPackets - before; got != runs+1 {
		t.Fatalf("%d of %d measured packets were promoted", got, runs+1)
	}
	if sw, _ := ft.Topology.EdgeSwitchOf(dst); len(prog.RTSnapshot(sw)) == 0 {
		t.Fatal("the sink recorded nothing")
	}
	if avg != 0 {
		t.Errorf("telemetry packet allocates %.2f objects/op, want 0", avg)
	}
}

// TestProgramSteadyStateAllocs pins the full pipeline — netsim event loop
// plus the MARS program at source, transit, and sink hops — at zero
// allocations per end-to-end packet once flows and pools are warm.
func TestProgramSteadyStateAllocs(t *testing.T) {
	_, sim, ft := allocEnv(t)
	hosts := ft.HostIDs
	// Warm every (src, dst) pair the measured loop will use, so flow map
	// entries, pools, and queue arrays all exist.
	for i := 0; i < 4*len(hosts); i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i*7+3)%len(hosts)]
		if src == dst {
			dst = hosts[(i*7+4)%len(hosts)]
		}
		sim.Send(sim.Now(), src, dst, netsim.FlowKey(i%len(hosts)), 700)
		sim.RunAll()
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		src := hosts[i%len(hosts)]
		dst := hosts[(i*7+3)%len(hosts)]
		if src == dst {
			dst = hosts[(i*7+4)%len(hosts)]
		}
		sim.Send(sim.Now(), src, dst, netsim.FlowKey(i%len(hosts)), 700)
		sim.RunAll()
		i++
	})
	if avg != 0 {
		t.Errorf("full-program packet allocates %.2f objects/op, want 0", avg)
	}
}
