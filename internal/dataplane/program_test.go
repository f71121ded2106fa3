package dataplane

import (
	"testing"

	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
	"mars/internal/workload"
)

// testEnv wires a K=4 fat-tree with the MARS program attached.
type testEnv struct {
	ft    *topology.FatTree
	sim   *netsim.Simulator
	prog  *Program
	table *pathid.Table
	notes []Notification
}

type noteSink struct{ env *testEnv }

func (n *noteSink) Notify(note Notification) { n.env.notes = append(n.env.notes, note) }

func newEnv(t *testing.T, cfg Config, seed int64) *testEnv {
	t.Helper()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	table, err := pathid.BuildTable(cfg.PathCfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{ft: ft, table: table}
	prog := New(cfg, ft.Topology, table, &noteSink{env})
	router := netsim.NewECMPRouter(ft.Topology, uint64(seed))
	sim := netsim.New(ft.Topology, router, prog, netsim.DefaultConfig(), seed)
	env.sim = sim
	env.prog = prog
	return env
}

// setOnPath installs th for flow where the control plane pushes it: every
// switch on a shortest path between the flow's edge switches.
func (env *testEnv) setOnPath(flow FlowID, th netsim.Time) {
	for _, p := range env.ft.AllShortestPaths(flow.Src, flow.Sink) {
		for _, sw := range p {
			env.prog.SetThreshold(sw, flow, th)
		}
	}
}

func TestTelemetryOnePerFlowPerEpoch(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 1)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[8]
	// 100 pps CBR for 1 s = 10 epochs of 100 ms.
	f := &workload.Flow{Src: src, Dst: dst, Key: 1, RatePPS: 100,
		Gaps: workload.GapConstant, Sizes: workload.FixedSize(500),
		Start: 0, Stop: netsim.Second}
	f.Install(env.sim)
	env.sim.Run(2 * netsim.Second)
	if env.prog.Stats.TelemetryPackets != 10 {
		t.Errorf("telemetry packets = %d, want 10", env.prog.Stats.TelemetryPackets)
	}
}

func TestRTRecordsPathDecodable(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 2)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[12]
	f := &workload.Flow{Src: src, Dst: dst, Key: 5, RatePPS: 200,
		Gaps: workload.GapConstant, Start: 0, Stop: netsim.Second}
	f.Install(env.sim)
	env.sim.Run(2 * netsim.Second)

	sink, _ := env.ft.EdgeSwitchOf(dst)
	srcEdge, _ := env.ft.EdgeSwitchOf(src)
	recs := env.prog.RTSnapshot(nil, sink)
	if len(recs) == 0 {
		t.Fatal("no RT records at sink")
	}
	for _, r := range recs {
		if r.Flow.Src != srcEdge || r.Flow.Sink != sink {
			t.Errorf("flow = %v, want <%d,%d>", r.Flow, srcEdge, sink)
		}
		path, ok := env.table.Lookup(sink, r.PathID)
		if !ok {
			t.Fatalf("PathID %#x not decodable at sink %d", r.PathID, sink)
		}
		if path[0] != srcEdge || path[len(path)-1] != sink {
			t.Errorf("decoded path %v has wrong endpoints", path)
		}
		if r.Latency <= 0 {
			t.Errorf("latency = %v", r.Latency)
		}
	}
}

func TestHeadersStrippedAtSink(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 3)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[4]
	var deliveredExtra int32 = -1
	check := &deliverCheck{extra: &deliveredExtra, inner: env.prog}
	// Re-create sim with wrapper hooks.
	router := netsim.NewECMPRouter(env.ft.Topology, 3)
	sim := netsim.New(env.ft.Topology, router, check, netsim.DefaultConfig(), 3)
	sim.Send(0, src, dst, 1, 400)
	sim.RunAll()
	if deliveredExtra != 0 {
		t.Errorf("delivered ExtraBytes = %d, want 0 (stripped)", deliveredExtra)
	}
}

type deliverCheck struct {
	netsim.NopHooks
	extra *int32
	inner *Program
}

func (d *deliverCheck) OnForward(s *netsim.Simulator, sw topology.NodeID, in, out topology.PortID, pkt *netsim.Packet, qlen int) netsim.Action {
	return d.inner.OnForward(s, sw, in, out, pkt, qlen)
}

func (d *deliverCheck) OnDeliver(s *netsim.Simulator, host topology.NodeID, pkt *netsim.Packet) {
	*d.extra = pkt.ExtraBytes
}

func TestHighLatencyNotification(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 4)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[8]
	srcEdge, _ := env.ft.EdgeSwitchOf(src)
	sink, _ := env.ft.EdgeSwitchOf(dst)
	flow := FlowID{Src: srcEdge, Sink: sink}
	// Push a tight threshold so normal latency trips it.
	env.setOnPath(flow, 1*netsim.Microsecond)
	f := &workload.Flow{Src: src, Dst: dst, Key: 9, RatePPS: 100,
		Gaps: workload.GapConstant, Start: 0, Stop: 500 * netsim.Millisecond}
	f.Install(env.sim)
	env.sim.Run(netsim.Second)
	found := false
	for _, n := range env.notes {
		if n.Kind == NotifyHighLatency && n.Flow == flow {
			found = true
			if n.Latency <= 1*netsim.Microsecond {
				t.Errorf("notification latency = %v", n.Latency)
			}
		}
	}
	if !found {
		t.Fatal("no high-latency notification")
	}
}

func TestNotificationRateLimited(t *testing.T) {
	cfg := DefaultProgramConfig()
	cfg.NotifyWindow = 10 * netsim.Second // one per switch for the whole run
	env := newEnv(t, cfg, 5)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[8]
	srcEdge, _ := env.ft.EdgeSwitchOf(src)
	sink, _ := env.ft.EdgeSwitchOf(dst)
	env.setOnPath(FlowID{srcEdge, sink}, 1)
	f := &workload.Flow{Src: src, Dst: dst, Key: 9, RatePPS: 200,
		Gaps: workload.GapConstant, Start: 0, Stop: 2 * netsim.Second}
	f.Install(env.sim)
	env.sim.Run(3 * netsim.Second)
	// Only the source edge switch sees unflagged telemetry packets (it
	// flags them), so exactly one notification should escape its window.
	if len(env.notes) != 1 {
		t.Errorf("notifications = %d, want 1 (rate-limited)", len(env.notes))
	}
	if env.prog.Stats.SuppressedNotifications == 0 {
		t.Error("expected suppressed notifications")
	}
}

func TestSuppressionFlagStopsDownstreamDetection(t *testing.T) {
	// With per-switch windows disabled (tiny window), the in-header flag
	// should still ensure at most one notification per telemetry packet.
	cfg := DefaultProgramConfig()
	cfg.NotifyWindow = 0
	env := newEnv(t, cfg, 6)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[8]
	srcEdge, _ := env.ft.EdgeSwitchOf(src)
	sink, _ := env.ft.EdgeSwitchOf(dst)
	env.setOnPath(FlowID{srcEdge, sink}, 1)
	env.sim.Send(0, src, dst, 77, 500)
	env.sim.RunAll()
	latencyNotes := 0
	for _, n := range env.notes {
		if n.Kind == NotifyHighLatency {
			latencyNotes++
		}
	}
	if latencyNotes != 1 {
		t.Errorf("high-latency notifications for one packet = %d, want 1", latencyNotes)
	}
}

func TestDropDetectionCountMismatch(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 7)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[4] // cross-pod not needed
	srcEdge, _ := env.ft.EdgeSwitchOf(src)
	sink, _ := env.ft.EdgeSwitchOf(dst)
	// Blackhole one uplink of the source edge after some traffic: drop a
	// fraction of packets so source/sink counts diverge.
	f := &workload.Flow{Src: src, Dst: dst, Key: 3, RatePPS: 400,
		Gaps: workload.GapConstant, Start: 0, Stop: 3 * netsim.Second}
	f.Install(env.sim)
	env.sim.At(500*netsim.Millisecond, func() {
		// Drop 50% on the uplink actually used: set on both uplinks.
		for _, agg := range env.ft.AggIDs[:2] {
			if p, ok := env.ft.PortTo(srcEdge, agg); ok {
				env.sim.SetPortDropProb(srcEdge, p, 0.5)
			}
		}
	})
	env.sim.Run(4 * netsim.Second)
	var drops int
	for _, n := range env.notes {
		if n.Kind == NotifyDrop && n.Flow == (FlowID{srcEdge, sink}) && n.Dropped > 0 {
			drops++
		}
	}
	if drops == 0 {
		t.Error("no count-mismatch drop notification")
	}
}

// strided is the shape of internal/telemetry's sampled codec (which this
// package cannot import): the paper's encoding promoted every 2nd epoch.
type strided struct{ Mars11 }

func (strided) EpochStride() uint32 { return 2 }

// TestDropDetectionEpochGap blackholes a flow's uplinks for 1 s (10
// epochs) under the paper's every-epoch promotion and under a stride-2
// codec. Before the blackout the healthy flow's records fall on stride
// multiples only and raise no epoch gap; the blackout then reports a gap
// of about 10/stride missed promotions.
func TestDropDetectionEpochGap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec Codec
	}{
		{"mars11", nil},
		{"sampled", strided{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultProgramConfig()
			cfg.Codec = tc.codec
			env := newEnv(t, cfg, 8)
			stride := env.prog.stride
			src, dst := env.ft.HostIDs[0], env.ft.HostIDs[4]
			srcEdge, _ := env.ft.EdgeSwitchOf(src)
			sink, _ := env.ft.EdgeSwitchOf(dst)
			f := &workload.Flow{Src: src, Dst: dst, Key: 3, RatePPS: 200,
				Gaps: workload.GapConstant, Start: 0, Stop: 4 * netsim.Second}
			f.Install(env.sim)
			blackhole := func(prob float64) {
				for _, agg := range env.ft.AggIDs[:2] {
					if p, ok := env.ft.PortTo(srcEdge, agg); ok {
						env.sim.SetPortDropProb(srcEdge, p, prob)
					}
				}
			}
			env.sim.At(1*netsim.Second, func() { blackhole(1) })
			env.sim.At(2*netsim.Second, func() { blackhole(0) })
			env.sim.Run(5 * netsim.Second)

			healthy := 0
			for _, r := range env.prog.RTSnapshot(nil, sink) {
				if r.Epoch%stride != 0 {
					t.Errorf("record for epoch %d under stride %d", r.Epoch, stride)
				}
				if r.Arrival < netsim.Second {
					healthy++
					if r.EpochGap != 0 {
						t.Errorf("healthy record for epoch %d carries epoch gap %d", r.Epoch, r.EpochGap)
					}
				}
			}
			if want := 10 / int(stride); healthy != want {
				t.Errorf("%d records before the blackout, want %d", healthy, want)
			}
			var gapNote *Notification
			for i, n := range env.notes {
				if n.Kind == NotifyDrop && n.EpochGap > 0 {
					gapNote = &env.notes[i]
					break
				}
			}
			if gapNote == nil {
				t.Fatal("no epoch-gap drop notification")
			}
			if gapNote.Time < 2*netsim.Second {
				t.Errorf("epoch-gap notification at %v, before the blackout ended", gapNote.Time)
			}
			if want := 10 / stride; gapNote.EpochGap < want/2 || gapNote.EpochGap > want+2 {
				t.Errorf("epoch gap = %d, want ~%d", gapNote.EpochGap, want)
			}
		})
	}
}

func TestTelemetryBandwidthAccounting(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 9)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[8] // 5-switch path
	env.sim.Send(0, src, dst, 1, 500)
	env.sim.RunAll()
	// One telemetry packet crossing 4 inter-switch links with 1 B PathID +
	// 11 B INT (the paper's payload, §4.1) = 48 bytes. A literal, not
	// 4 * (1 + TelemetryHeaderBytes), so a change to the header width
	// fails here.
	want := int64(48)
	if got := env.prog.Stats.TelemetryLinkBytes; got != want {
		t.Errorf("telemetry link bytes = %d, want %d", got, want)
	}
}

// TestQueueDepthAccumulates: at every hop the program folds the egress
// queue occupancy into the telemetry header (in-network computation), and
// the paper's fixed-width header grows nothing on the way.
func TestQueueDepthAccumulates(t *testing.T) {
	env := newEnv(t, DefaultProgramConfig(), 10)
	sw, in, out := transitHop(t, env.ft)
	meta := &PacketMeta{SourceSwitch: env.ft.EdgeIDs[0]}
	meta.INT = &meta.hdr
	pkt := &netsim.Packet{ID: 1, Size: 700, Meta: meta}
	for _, qlen := range []int{3, 0, 7} {
		env.prog.OnForward(env.sim, sw, in, out, pkt, qlen)
	}
	if got := meta.hdr.TotalQueueDepth; got != 10 {
		t.Errorf("total queue depth after hops at 3, 0 and 7 = %d, want 10", got)
	}
	if pkt.ExtraBytes != 0 {
		t.Errorf("the paper's header grew %d B in transit, want 0", pkt.ExtraBytes)
	}
}

func TestDefaultThresholdApplies(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 11)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[8]
	// No thresholds pushed: default 10 s means no notifications for
	// ordinary latency.
	f := &workload.Flow{Src: src, Dst: dst, Key: 2, RatePPS: 200,
		Gaps: workload.GapConstant, Start: 0, Stop: netsim.Second}
	f.Install(env.sim)
	env.sim.Run(2 * netsim.Second)
	for _, n := range env.notes {
		if n.Kind == NotifyHighLatency {
			t.Fatalf("unexpected notification %+v under default threshold", n)
		}
	}
}

func TestEpochOf(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 12)
	if env.prog.EpochOf(0) != 0 {
		t.Error("epoch of 0")
	}
	if env.prog.EpochOf(250*netsim.Millisecond) != 2 {
		t.Errorf("epoch of 250ms = %d", env.prog.EpochOf(250*netsim.Millisecond))
	}
}

func TestITETAccounting(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 13)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[8]
	env.sim.Send(0, src, dst, 1, 500)
	env.sim.RunAll()
	srcEdge, _ := env.ft.EdgeSwitchOf(src)
	sink, _ := env.ft.EdgeSwitchOf(dst)
	if n := itFlows(env.prog, srcEdge); n != 1 {
		t.Errorf("IT flows = %d", n)
	}
	if n := etEntries(env.prog, sink); n != 1 {
		t.Errorf("ET entries = %d", n)
	}
}

// itFlows counts the flows sw's Ingress Table tracks; a switch without
// tables tracks none.
func itFlows(p *Program, sw topology.NodeID) int {
	if p.states[sw].it == nil {
		return 0
	}
	return tracked(p.states[sw].it)
}

// etEntries counts sw's Egress Table (flow, path) keys.
func etEntries(p *Program, sw topology.NodeID) int {
	if p.states[sw].et == nil {
		return 0
	}
	return len(p.states[sw].et.perPath)
}
