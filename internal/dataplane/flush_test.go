package dataplane

import (
	"slices"
	"testing"

	"mars/internal/netsim"
	"mars/internal/topology"
	"mars/internal/workload"
)

// A reboot flush wipes the switch's register arrays — Ingress Table,
// Egress Table, Ring Table, pushed thresholds — while leaving every other
// switch untouched, and the flushed switch keeps working afterwards.
func TestFlushSwitchWipesRegisterState(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 5)
	src, dst := env.ft.HostIDs[0], env.ft.HostIDs[8]
	f := &workload.Flow{Src: src, Dst: dst, Key: 1, RatePPS: 100,
		Gaps: workload.GapConstant, Sizes: workload.FixedSize(500),
		Start: 0, Stop: netsim.Second}
	f.Install(env.sim)
	env.sim.Run(2 * netsim.Second)

	// The Ingress Table loads at the flow's source edge and the Ring Table
	// at its sink edge: flush the sink, keep the source as the untouched
	// witness.
	sws := append(append(append([]topology.NodeID{}, env.ft.EdgeIDs...), env.ft.AggIDs...), env.ft.CoreIDs...)
	var victim, witness topology.NodeID = -1, -1
	for _, sw := range sws {
		if len(env.prog.RTSnapshot(sw)) > 0 && victim < 0 {
			victim = sw
		}
		if itFlows(env.prog, sw) > 0 && witness < 0 {
			witness = sw
		}
	}
	if victim < 0 || witness < 0 || victim == witness {
		t.Fatalf("victim = %d, witness = %d", victim, witness)
	}
	env.prog.SetThreshold(victim, FlowID{Src: src, Sink: dst}, netsim.Millisecond)

	env.prog.FlushSwitch(victim)
	if n := itFlows(env.prog, victim); n != 0 {
		t.Errorf("IT flows after flush = %d", n)
	}
	if n := etEntries(env.prog, victim); n != 0 {
		t.Errorf("ET entries after flush = %d", n)
	}
	if n := len(env.prog.RTSnapshot(victim)); n != 0 {
		t.Errorf("RT records after flush = %d", n)
	}
	if itFlows(env.prog, witness) == 0 {
		t.Error("flush must not touch other switches")
	}

	// The flushed switch must keep functioning: new traffic repopulates it.
	f2 := &workload.Flow{Src: src, Dst: dst, Key: 2, RatePPS: 100,
		Gaps: workload.GapConstant, Sizes: workload.FixedSize(500),
		Start: 2 * netsim.Second, Stop: 3 * netsim.Second}
	f2.Install(env.sim)
	env.sim.Run(4 * netsim.Second)
	if len(env.prog.RTSnapshot(victim)) == 0 {
		t.Error("flushed switch did not repopulate from new traffic")
	}
}

// Flushing a host (a node with no switch state) is a no-op, not a panic.
func TestFlushSwitchHostNoop(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 6)
	env.prog.FlushSwitch(env.ft.HostIDs[0])
}

// TestRegistersLiveAtEdgeSwitches: the three register tables and the
// sink's epoch cache exist only where a host is attached (§4.2: core
// switches carry no per-flow state), while thresholds — checked at every
// hop — exist, and are lost to a reboot, at every switch. IT and ET hold
// one slot per host-facing switch, indexed by its ordinal in node order,
// and a reboot rebuilds them at that size.
func TestRegistersLiveAtEdgeSwitches(t *testing.T) {
	env := newEnv(t, DefaultProgramConfig(), 5)
	workload.RandomBackground(env.sim, env.ft, workload.BackgroundConfig{
		NumFlows: 24, RatePPS: 100, CrossPodBias: 1, RoundRobinSrc: true, RoundRobinDst: true,
	}, 0)
	env.sim.Run(netsim.Second)

	edge := map[topology.NodeID]bool{}
	for _, sw := range env.ft.EdgeIDs {
		edge[sw] = true
	}
	for _, sw := range env.ft.Switches() {
		st := &env.prog.states[sw]
		for name, has := range map[string]bool{"it": st.it != nil, "et": st.et != nil, "rt": st.rt != nil, "telemEpoch": st.telemEpoch != nil} {
			if has != edge[sw] {
				t.Errorf("switch %d (edge=%v): %s present=%v", sw, edge[sw], name, has)
			}
		}
		if !env.prog.Resident(sw) {
			t.Errorf("switch %d of a dataplane.New program is not resident", sw)
		}
	}
	if itFlows(env.prog, env.ft.EdgeIDs[0]) == 0 || len(env.prog.RTSnapshot(env.ft.EdgeIDs[0])) == 0 {
		t.Error("edge switch tables did not load during the run")
	}

	core, flow := env.ft.CoreIDs[0], FlowID{Src: env.ft.EdgeIDs[0], Sink: env.ft.EdgeIDs[2]}
	env.prog.SetThreshold(core, flow, netsim.Millisecond)
	if got := env.prog.threshold(core, flow); got != netsim.Millisecond {
		t.Fatalf("core threshold after SetThreshold = %v, want 1ms", got)
	}
	env.prog.FlushSwitch(core)
	if got := env.prog.threshold(core, flow); got != DefaultThreshold {
		t.Errorf("core threshold after FlushSwitch = %v, want the default %v", got, DefaultThreshold)
	}
	if st := &env.prog.states[core]; st.it != nil || st.rt != nil {
		t.Error("FlushSwitch gave a core switch register tables")
	}

	for i, sw := range env.ft.EdgeIDs {
		if got := env.prog.ord[sw]; got != int32(i) {
			t.Errorf("edge switch %d has ordinal %d, want %d", sw, got, i)
		}
	}
	wantSlots(t, env.prog, 8)
	ft8, err := topology.NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	wantSlots(t, New(DefaultProgramConfig(), ft8.Topology, nil, nil), 32)

	// Host and switch IDs interleaved, and the later edge switch wired
	// first and to the lower host IDs: numbering by host or by wiring
	// order would put e1 first, node order puts e0 first.
	b := topology.NewBuilder()
	h0 := b.AddHost("h0")
	spine := b.AddSwitch("spine", topology.LayerCore)
	e0 := b.AddSwitch("e0", topology.LayerEdge)
	h1 := b.AddHost("h1")
	e1 := b.AddSwitch("e1", topology.LayerEdge)
	h2 := b.AddHost("h2")
	b.Connect(e1, h0)
	b.Connect(e1, h1)
	b.Connect(e0, h2)
	b.Connect(e0, spine)
	b.Connect(e1, spine)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog := New(DefaultProgramConfig(), topo, nil, nil)
	if want := []int32{-1, -1, 0, -1, 1, -1}; !slices.Equal(prog.ord, want) {
		t.Errorf("ordinals by node ID = %v, want %v", prog.ord, want)
	}
	wantSlots(t, prog, 2)
}

// wantSlots requires every register-table switch of prog to hold exactly
// edges IT and ET per-flow slots, before and after a reboot.
func wantSlots(t *testing.T, prog *Program, edges int) {
	t.Helper()
	if prog.edges != edges {
		t.Errorf("%d host-facing switches counted, want %d", prog.edges, edges)
	}
	tables := 0
	for i := range prog.states {
		if prog.states[i].it == nil {
			continue
		}
		tables++
		for _, flushed := range []bool{false, true} {
			if flushed {
				prog.FlushSwitch(topology.NodeID(i))
			}
			st := &prog.states[i]
			if len(st.it.entries) != edges || len(st.et.perFlow) != edges {
				t.Errorf("switch %d (flushed=%v): IT %d, ET %d slots, want %d",
					i, flushed, len(st.it.entries), len(st.et.perFlow), edges)
			}
		}
	}
	if tables != edges {
		t.Errorf("%d switches have register tables, want %d", tables, edges)
	}
}
