package mars

import (
	"fmt"
	"testing"

	"mars/internal/controlplane"
	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/det"
	"mars/internal/telemetry"
	"mars/internal/topology"
	"mars/internal/workload"
)

func TestSystemEndToEndDelayFault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.StartBackground(96, 220)
	gt := sys.InjectFault(FaultDelay, 2*Second, 1500*Millisecond)
	sys.Run(4 * Second)

	if len(sys.Diagnoses) == 0 {
		t.Fatal("no diagnoses collected")
	}
	culprits := sys.Culprits()
	if len(culprits) == 0 {
		t.Fatal("no culprits produced")
	}
	found := -1
	for i, c := range culprits {
		if c.ContainsSwitch(gt.Switch) {
			found = i + 1
			break
		}
	}
	if found < 1 || found > 5 {
		t.Errorf("true switch s%d ranked %d; list head: %v", gt.Switch, found, culprits[:min(3, len(culprits))])
	}
}

// TestSystemWidensPathIDAboveK4: the facade starts at the configured
// PathID width and widens until the all-pairs path set fits, so k=4 keeps
// the paper's 8 bits and k=8 builds (at 12) and localizes a delay fault.
func TestSystemWidensPathIDAboveK4(t *testing.T) {
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w := sys.Program.Cfg.PathCfg.Width; w != 8 || sys.Paths.Cfg.Width != w {
		t.Errorf("k=4 PathID width: program %d, table %d; want the paper's 8 twice", w, sys.Paths.Cfg.Width)
	}

	cfg.FatTreeK = 8
	sys, err = NewSystem(cfg)
	if err != nil {
		t.Fatalf("k=8: %v", err)
	}
	if w := sys.Program.Cfg.PathCfg.Width; w != 12 || sys.Paths.Cfg.Width != w {
		t.Errorf("k=8 PathID width: program %d, table %d; want 12 twice", w, sys.Paths.Cfg.Width)
	}
	sys.StartBackground(12*len(sys.FT.EdgeIDs), 220)
	gt := sys.InjectFault(FaultDelay, 2*Second, 1500*Millisecond)
	sys.Run(4 * Second)
	culprits := sys.Culprits()
	if len(culprits) == 0 || !culprits[0].ContainsSwitch(gt.Switch) {
		t.Errorf("k=8 delay at s%d: top culprit is not the injected switch: %v", gt.Switch, culprits[:min(3, len(culprits))])
	}
}

// installLog is the live registers with the last threshold each switch was
// sent for each flow.
type installLog struct {
	controlplane.LiveRegisters
	at map[FlowID]map[topology.NodeID]Time
}

func (l *installLog) SetThreshold(sw topology.NodeID, flow FlowID, th Time) {
	if l.at[flow] == nil {
		l.at[flow] = map[topology.NodeID]Time{}
	}
	l.at[flow][sw] = th
	l.LiveRegisters.SetThreshold(sw, flow, th)
}

// TestThresholdsGoWhereTheyAreRead runs default trials on the perfect
// channel with every install logged: (a) no switch off all of a flow's
// shortest paths is ever sent that flow's threshold — at k=4, at k=8, and
// for an intra-edge flow, whose one switch is the only one; (b) at every
// hop a telemetry packet was checked at, the switch holds the controller's
// current threshold for the flow once it has been pushed at all.
func TestThresholdsGoWhereTheyAreRead(t *testing.T) {
	for _, k := range []int{4, 8} {
		cfg := DefaultConfig()
		cfg.FatTreeK = k
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := &installLog{LiveRegisters: controlplane.LiveRegisters{Program: sys.Program}, at: map[FlowID]map[topology.NodeID]Time{}}
		agent := controlplane.NewAgent(log, sys.CtrlChan, &sys.Controller.Bytes, sys.Controller.Deliver)
		sys.Controller.ToSwitch, sys.Program.Notifier = agent.Deliver, agent

		var stale []string
		sys.Program.OnRecord = func(sink topology.NodeID, rec dataplane.RTRecord) {
			at := log.at[rec.Flow]
			path, ok := sys.Paths.Lookup(sink, rec.PathID)
			if at == nil || !ok {
				return
			}
			for _, sw := range path {
				if want := sys.Controller.ThresholdOf(rec.Flow); at[sw] != want && len(stale) < 3 {
					stale = append(stale, fmt.Sprintf("%v at s%d: %v, controller %v", rec.Flow, sw, at[sw], want))
				}
			}
		}
		sys.StartBackground(12*len(sys.FT.EdgeIDs), 220)
		h0, h1 := sys.FT.HostIDs[0], sys.FT.HostIDs[1]
		edge, _ := sys.FT.EdgeSwitchOf(h0)
		if e1, _ := sys.FT.EdgeSwitchOf(h1); e1 != edge {
			t.Fatalf("hosts %d and %d are not behind one edge switch", h0, h1)
		}
		intra := &workload.Flow{Src: h0, Dst: h1, Key: 1 << 20, RatePPS: 220, Gaps: workload.GapConstant, Start: 0, Stop: 2 * Second}
		intra.Install(sys.Sim)
		sys.Run(2 * Second)

		if len(stale) > 0 {
			t.Errorf("k=%d: hops checked against a threshold other than the controller's: %v", k, stale)
		}
		intraAt := log.at[FlowID{Src: edge, Sink: edge}]
		if _, ok := intraAt[edge]; !ok || len(intraAt) != 1 {
			t.Errorf("k=%d: intra-edge flow at s%d installed at %v, want exactly its one switch", k, edge, intraAt)
		}
		for _, flow := range det.KeysFunc(log.at, func(a, b FlowID) bool { return a.Src < b.Src || a.Src == b.Src && a.Sink < b.Sink }) {
			onPath := map[topology.NodeID]bool{}
			for _, p := range sys.FT.AllShortestPaths(flow.Src, flow.Sink) {
				for _, sw := range p {
					onPath[sw] = true
				}
			}
			for _, sw := range det.Keys(log.at[flow]) {
				if !onPath[sw] {
					t.Fatalf("k=%d: %v installed at s%d, off all its %d shortest paths", k, flow, sw, len(sys.FT.AllShortestPaths(flow.Src, flow.Sink)))
				}
			}
		}
	}
}

func TestSystemRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FatTreeK = 3
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("expected error for odd K")
	}
}

// TestFacadeDerivesBothCodecHalves: Config.Codec is the one selector. ""
// is "mars11", the program and the controller hold that codec's one value,
// and a Program.Codec set next to it does not survive.
func TestFacadeDerivesBothCodecHalves(t *testing.T) {
	for _, tc := range []struct {
		codec, want string
		program     dataplane.Codec
	}{
		{"", "mars11", nil},
		{"mars11", "mars11", nil},
		{"pintlike", "pintlike", dataplane.Mars11{}},
	} {
		cfg := DefaultConfig()
		cfg.Codec = tc.codec
		cfg.Program.Codec = tc.program
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := telemetry.New(tc.want, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if prog, ctrl := sys.Program.Cfg.Codec, sys.Controller.Cfg.Codec; prog != want || ctrl != want {
			t.Errorf("Codec %q next to Program.Codec %#v: Program.Codec = %#v, Controller.Codec = %#v; want %#v twice",
				tc.codec, tc.program, prog, ctrl, want)
		}
	}
}

func TestSystemOverheadCountersMove(t *testing.T) {
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.StartBackground(24, 100)
	sys.Run(1 * Second)
	if sys.TelemetryOverheadBytes() == 0 {
		t.Error("no telemetry overhead counted")
	}
	// Refresh bytes should accrue even without anomalies.
	if sys.DiagnosisOverheadBytes() == 0 {
		t.Error("no control-channel bytes counted")
	}
}

func TestSystemThresholdBecomesDynamic(t *testing.T) {
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.StartBackground(96, 220)
	sys.Run(2 * Second)
	dynamic := 0
	for _, src := range sys.FT.EdgeIDs {
		for _, dst := range sys.FT.EdgeIDs {
			if src == dst {
				continue
			}
			if th := sys.ThresholdOf(FlowID{Src: src, Sink: dst}); th < dataplane.DefaultThreshold {
				dynamic++
			}
		}
	}
	if dynamic == 0 {
		t.Error("no flow obtained a dynamic threshold after warmup")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestLossyControlChannelDeterminism(t *testing.T) {
	// Two identical seeded runs through a 20%-lossy control channel must
	// agree exactly: same culprit list, same control-plane byte counts,
	// same channel traffic. The channel draws from its own seeded source,
	// so its faults are part of the reproducible event stream.
	run := func() *System {
		cfg := DefaultConfig()
		cfg.Seed = 13
		cfg.CtrlChan = ctrlchan.Lossy(0.2, 42)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.StartBackground(48, 200)
		sys.InjectFault(FaultDelay, Second, Second)
		sys.Run(3 * Second)
		return sys
	}
	a, b := run(), run()
	ca, cb := a.Culprits(), b.Culprits()
	if len(ca) != len(cb) {
		t.Fatalf("culprit counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].String() != cb[i].String() {
			t.Errorf("culprit %d differs: %v vs %v", i, ca[i], cb[i])
		}
	}
	if a.Controller.Bytes != b.Controller.Bytes {
		t.Errorf("byte accounting differs:\n%+v\n%+v", a.Controller.Bytes, b.Controller.Bytes)
	}
	if a.Controller.Bytes.Retries == 0 {
		t.Error("20% loss caused no retry; channel not engaged")
	}
}

func TestPerfectChannelAddsNoRequestTraffic(t *testing.T) {
	// With the default (perfect) channel nothing times out, so the retry
	// machinery must stay cold: no retries, no duplicates, no partials.
	cfg := DefaultConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.StartBackground(48, 200)
	sys.InjectFault(FaultDelay, Second, Second)
	sys.Run(3 * Second)
	bt := sys.Controller.Bytes
	if bt.Retries != 0 || bt.DuplicateNotifications != 0 || bt.PartialDiagnoses != 0 {
		t.Errorf("perfect channel exercised fault machinery: %+v", bt)
	}
	if bt.RequestBytes == 0 || bt.RefreshBytes == 0 {
		t.Error("control traffic did not flow through the channel")
	}
}
