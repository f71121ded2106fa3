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
	a := NewAgent(&LiveRegisters{Program: prog}, tr, &ctrl.Bytes, ctrl.Deliver)
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
		if n := len(e.prog.RTSnapshot(nil, sw)); n != 0 {
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

// installRegs records every threshold installed through it.
type installRegs struct {
	*LiveRegisters
	installed map[topology.NodeID]map[dataplane.FlowID]netsim.Time
}

func (r installRegs) SetThreshold(sw topology.NodeID, flow dataplane.FlowID, th netsim.Time) {
	r.LiveRegisters.SetThreshold(sw, flow, th)
	if r.installed[sw] == nil {
		r.installed[sw] = make(map[dataplane.FlowID]netsim.Time)
	}
	r.installed[sw][flow] = th
}

// TestAckOfAMovedPushSendsTheRest: on a perfect channel that holds one
// switch's push back, a refresh that moves that switch's values while the
// push is in flight queues them; the late ack retires none of them and
// sends them in a second push. Every switch ends with what the controller
// wants installed and nothing unacknowledged, and a push delivered at once
// still reads as sent after its ack, which arrives inside its Send.
func TestAckOfAMovedPushSendsTheRest(t *testing.T) {
	e := newEnv(t, 3)
	regs := installRegs{&LiveRegisters{Program: e.prog}, make(map[topology.NodeID]map[dataplane.FlowID]netsim.Time)}
	e.agent.regs = regs
	held := topology.NodeID(-1)
	var late []ctrlchan.Message
	pushes := make(map[topology.NodeID]int)
	e.ctrl.ToSwitch = func(m ctrlchan.Message) {
		if m.Kind != ctrlchan.KindThresholdPush {
			e.agent.Deliver(m)
			return
		}
		pushes[m.Switch]++
		lent := slices.Clone(m.Thresholds)
		if m.Switch == held {
			m.Thresholds = lent // held past Send, so copied
			late = append(late, m)
			return
		}
		e.agent.Deliver(m) // acked inside this call
		if !slices.Equal(m.Thresholds, lent) {
			t.Fatalf("s%d's push changed under its own Send: %v, sent as %v", m.Switch, m.Thresholds, lent)
		}
	}
	var wants []ctrlchan.Threshold
	for i, sink := range e.ft.EdgeIDs[1:] {
		wants = append(wants, ctrlchan.Threshold{Flow: dataplane.FlowID{Src: e.ft.EdgeIDs[0], Sink: sink}, Value: netsim.Time(i+1) * netsim.Millisecond})
	}
	move := func() {
		for i := range wants {
			wants[i].Value += netsim.Millisecond
		}
		e.ctrl.pushThresholds(wants)
	}
	e.ctrl.pushThresholds(wants)
	held = e.ctrl.flows[wants[0].Flow].switches[0]
	clear(pushes)
	move()
	move()
	if len(late) != 1 || pushes[held] != 1 {
		t.Fatalf("s%d: %d pushes held back of %d sent, want 1 of 1", held, len(late), pushes[held])
	}
	held = -1
	e.agent.Deliver(late[0])

	if pushes[late[0].Switch] != 2 {
		t.Fatalf("s%d, whose values moved mid-push, got %d pushes, want 2", late[0].Switch, pushes[late[0].Switch])
	}
	for _, w := range wants {
		fp := e.ctrl.flows[w.Flow]
		for _, sw := range fp.switches {
			if got, ok := regs.installed[sw][w.Flow]; !ok || got != fp.want || got != w.Value {
				t.Errorf("s%d holds %v for flow %v (installed %v), want %v", sw, got, w.Flow, ok, w.Value)
			}
			if sp := e.ctrl.pushes[sw]; sp.inFlight || len(sp.unacked) > 0 {
				t.Errorf("s%d still has %d entries unacknowledged (in flight %v)", sw, len(sp.unacked), sp.inFlight)
			}
		}
	}
}
