package controlplane

import (
	"slices"
	"testing"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
	"mars/internal/workload"
)

type env struct {
	ft    *topology.FatTree
	sim   *netsim.Simulator
	prog  *dataplane.Program
	ctrl  *Controller
	agent *Agent
}

// newEnv is a started controller and the switch agent over prog's live
// registers, joined by a perfect channel.
func newEnv(t testing.TB, seed int64) *env {
	return newLossyEnv(t, seed, DefaultConfig(), ctrlchan.Config{})
}

// attachAgent gives ctrl its in-process other end: an agent over prog's
// live registers, installed as prog's Notifier.
func attachAgent(ctrl *Controller, prog *dataplane.Program, tr ctrlchan.Transport) *Agent {
	a := NewAgent(LiveRegisters{Program: prog}, tr, &ctrl.Bytes, ctrl.Deliver)
	ctrl.ToSwitch = a.Deliver
	prog.Notifier = a
	return a
}

func TestEdgeSwitchDiscovery(t *testing.T) {
	e := newEnv(t, 1)
	// In a K=4 fat-tree the 8 edge switches are exactly the host-attached
	// ones.
	want := slices.Clone(e.ft.EdgeIDs)
	slices.Sort(want)
	if got := e.ctrl.edgeSwitches; !slices.Equal(got, want) {
		t.Errorf("edge switches = %v, want %v", got, want)
	}
}

func TestRefreshFeedsReservoirsAndPushesThresholds(t *testing.T) {
	e := newEnv(t, 2)
	src, dst := e.ft.HostIDs[0], e.ft.HostIDs[8]
	f := &workload.Flow{Src: src, Dst: dst, Key: 1, RatePPS: 200,
		Gaps: workload.GapConstant, Start: 0, Stop: 3 * netsim.Second}
	f.Install(e.sim)
	e.sim.Run(4 * netsim.Second)

	srcEdge, _ := e.ft.EdgeSwitchOf(src)
	sink, _ := e.ft.EdgeSwitchOf(dst)
	flow := dataplane.FlowID{Src: srcEdge, Sink: sink}
	if e.ctrl.reservoirs[flow] == nil {
		t.Fatal("reservoir never fed")
	}
	th := e.ctrl.ThresholdOf(flow)
	if th <= 0 || th >= 10*netsim.Second {
		t.Errorf("threshold = %v, want dynamic (not default)", th)
	}
	if e.ctrl.Bytes.RefreshBytes == 0 || e.ctrl.Bytes.ThresholdPushBytes == 0 {
		t.Errorf("refresh accounting: %+v", e.ctrl.Bytes)
	}
}

func TestRefreshConsumesEachRecordOnce(t *testing.T) {
	e := newEnv(t, 3)
	src, dst := e.ft.HostIDs[0], e.ft.HostIDs[8]
	f := &workload.Flow{Src: src, Dst: dst, Key: 1, RatePPS: 100,
		Gaps: workload.GapConstant, Start: 0, Stop: netsim.Second}
	f.Install(e.sim)
	e.sim.Run(2 * netsim.Second)
	srcEdge, _ := e.ft.EdgeSwitchOf(src)
	sink, _ := e.ft.EdgeSwitchOf(dst)
	r := e.ctrl.ReservoirFor(dataplane.FlowID{Src: srcEdge, Sink: sink})
	// 10 telemetry epochs -> exactly 10 samples accepted (reservoir not full).
	if got := r.Accepted; got != 10 {
		t.Errorf("reservoir accepted = %d, want 10 (each record once)", got)
	}
}

func TestNotificationTriggersDiagnosis(t *testing.T) {
	e := newEnv(t, 4)
	var diags []Diagnosis
	e.ctrl.OnDiagnosis = func(d Diagnosis) { diags = append(diags, d) }
	src, dst := e.ft.HostIDs[0], e.ft.HostIDs[8]
	srcEdge, _ := e.ft.EdgeSwitchOf(src)
	sink, _ := e.ft.EdgeSwitchOf(dst)
	flow := dataplane.FlowID{Src: srcEdge, Sink: sink}
	f := &workload.Flow{Src: src, Dst: dst, Key: 1, RatePPS: 200,
		Gaps: workload.GapConstant, Start: 0, Stop: 4 * netsim.Second}
	f.Install(e.sim)
	// After thresholds stabilize, inject latency at an aggregation switch.
	e.sim.At(2*netsim.Second, func() {
		e.sim.SetSwitchExtraDelay(e.ft.AggIDs[0], 50*netsim.Millisecond)
		e.sim.SetSwitchExtraDelay(e.ft.AggIDs[1], 50*netsim.Millisecond)
	})
	e.sim.Run(5 * netsim.Second)
	if len(diags) == 0 {
		t.Fatal("no diagnosis collected")
	}
	d := diags[0]
	if d.Trigger.Kind != dataplane.NotifyHighLatency {
		t.Errorf("trigger kind = %v", d.Trigger.Kind)
	}
	if d.Trigger.Flow != flow {
		t.Errorf("trigger flow = %v, want %v", d.Trigger.Flow, flow)
	}
	if len(d.Records) == 0 {
		t.Error("diagnosis carried no records")
	}
	if e.ctrl.Bytes.CollectionBytes == 0 || e.ctrl.Bytes.NotificationBytes == 0 {
		t.Errorf("diagnosis accounting: %+v", e.ctrl.Bytes)
	}
}

func TestResponseWindowLimitsDiagnoses(t *testing.T) {
	e := newEnv(t, 5)
	var diags []Diagnosis
	e.ctrl.OnDiagnosis = func(d Diagnosis) { diags = append(diags, d) }
	// Fire notifications directly, 100 in 100 ms; window is 500 ms. The
	// first fires immediately; the other 99 land inside the window and are
	// suppressed, with the newest retained — it must fire exactly one
	// follow-up diagnosis when the window reopens at t=500 ms, not vanish.
	for i := 0; i < 100; i++ {
		at := netsim.Time(i) * netsim.Millisecond
		e.sim.At(at, func() {
			e.agent.Notify(dataplane.Notification{Kind: dataplane.NotifyHighLatency, Time: at})
		})
	}
	e.sim.Run(netsim.Second)
	if len(diags) != 2 {
		t.Fatalf("diagnoses = %d, want 2 (one per window: initial + flushed)", len(diags))
	}
	if got := diags[1].Trigger.Time; got != 99*netsim.Millisecond {
		t.Errorf("flushed trigger time = %v, want the newest suppressed (99ms)", got)
	}
	if diags[1].Time != 500*netsim.Millisecond {
		t.Errorf("flushed diagnosis at %v, want window reopen (500ms)", diags[1].Time)
	}
	if e.ctrl.Bytes.SuppressedNotifications != 99 {
		t.Errorf("suppressed = %d, want 99", e.ctrl.Bytes.SuppressedNotifications)
	}
	if e.ctrl.Bytes.NotificationBytes != 100*dataplane.NotificationBytes {
		t.Errorf("notification bytes = %d", e.ctrl.Bytes.NotificationBytes)
	}
}

func TestDiagnosisBytesSum(t *testing.T) {
	b := BandwidthStats{NotificationBytes: 10, CollectionBytes: 20, RefreshBytes: 5}
	if b.DiagnosisBytes() != 30 {
		t.Errorf("DiagnosisBytes = %d", b.DiagnosisBytes())
	}
}

func TestStartIdempotent(t *testing.T) {
	e := newEnv(t, 6)
	e.ctrl.Start() // second call must not double the refresh cadence
	src, dst := e.ft.HostIDs[0], e.ft.HostIDs[8]
	f := &workload.Flow{Src: src, Dst: dst, Key: 1, RatePPS: 100,
		Gaps: workload.GapConstant, Start: 0, Stop: netsim.Second}
	f.Install(e.sim)
	e.sim.Run(2 * netsim.Second)
	srcEdge, _ := e.ft.EdgeSwitchOf(src)
	sink, _ := e.ft.EdgeSwitchOf(dst)
	r := e.ctrl.ReservoirFor(dataplane.FlowID{Src: srcEdge, Sink: sink})
	if r.Accepted != 10 {
		t.Errorf("accepted = %d, want 10 (double Start would double-feed)", r.Accepted)
	}
}

func TestCoreSwitchesCarryNoTelemetryState(t *testing.T) {
	// Motivation #1: MARS stores telemetry only at edge switches and the
	// controller never collects from the core. After a busy run, core and
	// aggregation Ring Tables must be empty and collection must touch
	// edge switches only.
	e := newEnv(t, 9)
	var diag Diagnosis
	e.ctrl.OnDiagnosis = func(d Diagnosis) { diag = d }
	for i := 0; i < 8; i++ {
		f := &workload.Flow{
			Src: e.ft.HostIDs[i], Dst: e.ft.HostIDs[(i+9)%len(e.ft.HostIDs)],
			Key: netsim.FlowKey(i + 1), RatePPS: 200, Gaps: workload.GapConstant,
			Start: 0, Stop: 2 * netsim.Second,
		}
		f.Install(e.sim)
	}
	// Force one collection.
	e.sim.At(1500*netsim.Millisecond, func() {
		e.agent.Notify(dataplane.Notification{Kind: dataplane.NotifyHighLatency})
	})
	e.sim.Run(2 * netsim.Second)
	for _, sw := range append(e.ft.CoreIDs, e.ft.AggIDs...) {
		if n := len(e.prog.RTSnapshot(sw)); n != 0 {
			t.Errorf("non-edge switch s%d holds %d RT records", sw, n)
		}
	}
	if len(diag.Records) == 0 {
		t.Fatal("collection returned nothing")
	}
	edge := map[topology.NodeID]bool{}
	for _, sw := range e.ft.EdgeIDs {
		edge[sw] = true
	}
	for _, r := range diag.Records {
		if !edge[r.Flow.Sink] {
			t.Errorf("record collected from non-edge sink s%d", r.Flow.Sink)
		}
	}
}
