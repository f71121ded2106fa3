package controlplane

import (
	"testing"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/det"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
	"mars/internal/workload"
)

// newLossyEnv is newEnv with an explicit control channel and controller
// config.
func newLossyEnv(t testing.TB, seed int64, cfg Config, chCfg ctrlchan.Config) *env {
	t.Helper()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dataplane.DefaultProgramConfig()
	table, err := pathid.BuildTable(dcfg.PathCfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		t.Fatal(err)
	}
	prog := dataplane.New(dcfg, ft.Topology, table, nil)
	router := netsim.NewECMPRouter(ft.Topology, uint64(seed))
	sim := netsim.New(ft.Topology, router, prog, netsim.DefaultConfig(), seed)
	ch := ctrlchan.New(sim, chCfg)
	ctrl := New(cfg, sim, ft.Topology, ch)
	agent := attachAgent(ctrl, prog, ch)
	ctrl.Start()
	return &env{ft: ft, sim: sim, prog: prog, ctrl: ctrl, agent: agent}
}

func TestZeroEdgeSwitchTopology(t *testing.T) {
	// A switch-only topology has no telemetry sinks. The controller must
	// not crash: a notification still produces a diagnosis — an empty,
	// complete one (Requested 0, full coverage) — rather than a stall.
	b := topology.NewBuilder()
	s0 := b.AddSwitch("s0", topology.LayerCore)
	s1 := b.AddSwitch("s1", topology.LayerCore)
	b.Connect(s0, s1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog := dataplane.New(dataplane.DefaultProgramConfig(), topo, nil, nil)
	sim := netsim.New(topo, nil, prog, netsim.DefaultConfig(), 1)
	ch := ctrlchan.New(sim, ctrlchan.Config{})
	ctrl := New(DefaultConfig(), sim, topo, ch)
	agent := attachAgent(ctrl, prog, ch)
	if n := len(ctrl.edgeSwitches); n != 0 {
		t.Fatalf("edge switches = %d, want 0", n)
	}
	var diags []Diagnosis
	ctrl.OnDiagnosis = func(d Diagnosis) { diags = append(diags, d) }
	ctrl.Start()
	agent.Notify(dataplane.Notification{Kind: dataplane.NotifyHighLatency})
	sim.Run(netsim.Second)
	if len(diags) != 1 {
		t.Fatalf("diagnoses = %d, want 1", len(diags))
	}
	d := diags[0]
	if d.Requested != 0 || len(d.Records) != 0 || d.Partial() {
		t.Errorf("diagnosis = %+v, want empty complete collection", d)
	}
	if d.Coverage() != 1 {
		t.Errorf("coverage = %v, want 1 for the zero-sink degenerate case", d.Coverage())
	}
	if ctrl.Bytes.CollectionBytes != 0 || ctrl.Bytes.Diagnoses != 1 {
		t.Errorf("accounting = %+v", ctrl.Bytes)
	}
}

func TestIdleRefreshSendsNothing(t *testing.T) {
	// Once every Ring Table record predates the per-sink watermark, further
	// refresh rounds move no record bytes and push no thresholds — the
	// incremental pull must recognize an idle network.
	e := newEnv(t, 11)
	f := &workload.Flow{Src: e.ft.HostIDs[0], Dst: e.ft.HostIDs[8], Key: 1,
		RatePPS: 100, Gaps: workload.GapConstant, Start: 0, Stop: netsim.Second}
	f.Install(e.sim)
	e.sim.Run(2 * netsim.Second)
	refresh, push := e.ctrl.Bytes.RefreshBytes, e.ctrl.Bytes.ThresholdPushBytes
	if refresh == 0 || push == 0 {
		t.Fatalf("busy phase moved no bytes: %+v", e.ctrl.Bytes)
	}
	e.sim.Run(5 * netsim.Second) // 15 more idle refresh rounds
	if got := e.ctrl.Bytes.RefreshBytes; got != refresh {
		t.Errorf("idle refresh moved %d record bytes", got-refresh)
	}
	if got := e.ctrl.Bytes.ThresholdPushBytes; got != push {
		t.Errorf("idle refresh pushed %d threshold bytes", got-push)
	}
}

func TestThresholdPushSkipsUnchangedValue(t *testing.T) {
	// Satellite of the Fig. 9 study: re-deriving an unchanged threshold
	// must cost zero push bytes; only a moved value goes on the wire, and
	// only to the switches on the flow's paths.
	e := newEnv(t, 12)
	flow := dataplane.FlowID{Src: e.ft.EdgeIDs[0], Sink: e.ft.EdgeIDs[1]}
	// An intra-pod flow: its two edge switches and their pod's two
	// aggregation switches.
	onPath := int64(len(e.ctrl.switchesOf(flow)))
	if onPath != 4 {
		t.Fatalf("intra-pod flow %v crosses %d switches, want 4", flow, onPath)
	}
	push := func(th netsim.Time) { e.ctrl.pushThresholds([]ctrlchan.Threshold{{Flow: flow, Value: th}}) }

	push(5 * netsim.Millisecond)
	if got := e.ctrl.Bytes.ThresholdPushBytes; got != onPath*dataplane.ThresholdPushBytes {
		t.Fatalf("first push = %d bytes, want %d", got, onPath*dataplane.ThresholdPushBytes)
	}
	if got := e.ctrl.Bytes.AckBytes; got != onPath*ctrlchan.AckBytes {
		t.Errorf("acks = %d bytes, want %d", got, onPath*ctrlchan.AckBytes)
	}
	push(5 * netsim.Millisecond)
	if got := e.ctrl.Bytes.ThresholdPushBytes; got != onPath*dataplane.ThresholdPushBytes {
		t.Errorf("unchanged value re-pushed: %d bytes, want still %d", got, onPath*dataplane.ThresholdPushBytes)
	}
	push(6 * netsim.Millisecond)
	if got := e.ctrl.Bytes.ThresholdPushBytes; got != 2*onPath*dataplane.ThresholdPushBytes {
		t.Errorf("moved value = %d bytes, want %d", got, 2*onPath*dataplane.ThresholdPushBytes)
	}
}

func TestThresholdMovedInFlightFollowsTheAck(t *testing.T) {
	// A value that moves while its push is in flight is not settled by the
	// ack of the old one: each switch is sent it once that ack is in.
	delayed := ctrlchan.DirConfig{Latency: netsim.Millisecond}
	e := newLossyEnv(t, 14, DefaultConfig(), ctrlchan.Config{ToController: delayed, ToSwitch: delayed})
	flow := dataplane.FlowID{Src: e.ft.EdgeIDs[0], Sink: e.ft.EdgeIDs[1]}
	onPath := int64(len(e.ctrl.switchesOf(flow)))
	e.ctrl.pushThresholds([]ctrlchan.Threshold{{Flow: flow, Value: 5 * netsim.Millisecond}})
	e.ctrl.pushThresholds([]ctrlchan.Threshold{{Flow: flow, Value: 6 * netsim.Millisecond}})
	if got := e.ctrl.Bytes.ThresholdPushBytes; got != onPath*dataplane.ThresholdPushBytes {
		t.Fatalf("a second push went out while the first was in flight: %d bytes", got)
	}
	e.sim.Run(100 * netsim.Millisecond)
	if got := e.ctrl.Bytes.AckBytes; got != 2*onPath*ctrlchan.AckBytes || e.ctrl.Bytes.Retries != 0 {
		t.Errorf("%d ack bytes and %d retries, want two acked pushes per switch and no retry", got, e.ctrl.Bytes.Retries)
	}
	for _, sw := range e.ctrl.switchesOf(flow) {
		if sp := e.ctrl.pushes[sw]; len(sp.unacked) != 0 || sp.inFlight {
			t.Errorf("s%d push state %+v, want the moved value acknowledged", sw, *sp)
		}
	}
}

func TestPushStateIsPerSwitch(t *testing.T) {
	// After a loaded run the controller keeps one push record per switch it
	// has pushed to, all of them acknowledged, and nothing outstanding.
	e := newEnv(t, 15)
	workload.RandomBackground(e.sim, e.ft, workload.BackgroundConfig{
		NumFlows: 96, RatePPS: 220, RateJitter: 0.2, Gaps: workload.GapExponential,
		CrossPodBias: 1, RoundRobinSrc: true, RoundRobinDst: true,
	}, 1)
	e.sim.Run(2 * netsim.Second)
	if len(e.ctrl.flows) == 0 || len(e.ctrl.pushes) == 0 || len(e.ctrl.pushes) > e.ft.NumSwitches() {
		t.Fatalf("%d flows pushed, %d push records; want some, at most one per switch (%d)",
			len(e.ctrl.flows), len(e.ctrl.pushes), e.ft.NumSwitches())
	}
	for _, sw := range det.Keys(e.ctrl.pushes) {
		if sp := e.ctrl.pushes[sw]; len(sp.unacked) != 0 || sp.inFlight {
			t.Errorf("s%d push state %+v after a lossless run", sw, *sp)
		}
	}
	if len(e.ctrl.outstanding) != 0 {
		t.Errorf("%d requests outstanding after a lossless run", len(e.ctrl.outstanding))
	}
}

func TestCollectionRetriesRecoverMissingSinks(t *testing.T) {
	// Lose 60% of controller→switch requests. Without retries the
	// collection finishes partial (missing sinks tagged, coverage < 1);
	// with the retry budget the same seed recovers more sinks.
	chCfg := ctrlchan.Config{
		ToSwitch: ctrlchan.DirConfig{Loss: 0.6, Latency: netsim.Millisecond},
		Seed:     21,
	}
	collect := func(cfg Config) Diagnosis {
		e := newLossyEnv(t, 21, cfg, chCfg)
		var diags []Diagnosis
		e.ctrl.OnDiagnosis = func(d Diagnosis) { diags = append(diags, d) }
		e.sim.At(0, func() {
			e.agent.Notify(dataplane.Notification{Kind: dataplane.NotifyHighLatency})
		})
		e.sim.Run(2 * netsim.Second)
		if len(diags) != 1 {
			t.Fatalf("diagnoses = %d, want 1", len(diags))
		}
		return diags[0]
	}

	noRetry := DefaultConfig()
	noRetry.MaxRetries = 0
	dn := collect(noRetry)
	if !dn.Partial() || dn.Coverage() >= 1 {
		t.Fatalf("no-retry at 60%% loss should be partial, got %d/%d sinks",
			dn.Requested-len(dn.MissingSinks), dn.Requested)
	}
	if dn.Requested != 8 {
		t.Errorf("requested = %d, want 8 edge switches", dn.Requested)
	}

	dr := collect(DefaultConfig())
	if len(dr.MissingSinks) >= len(dn.MissingSinks) {
		t.Errorf("retries did not recover sinks: %d missing with retries vs %d without",
			len(dr.MissingSinks), len(dn.MissingSinks))
	}
}

func TestDuplicatedNotificationsDeduplicated(t *testing.T) {
	// Every notification is duplicated in transit; sequence numbers must
	// collapse the copies to one diagnosis.
	chCfg := ctrlchan.Config{
		ToController: ctrlchan.DirConfig{Latency: netsim.Millisecond, DupProb: 1},
		Seed:         31,
	}
	e := newLossyEnv(t, 31, DefaultConfig(), chCfg)
	var diags []Diagnosis
	e.ctrl.OnDiagnosis = func(d Diagnosis) { diags = append(diags, d) }
	e.sim.At(0, func() {
		e.agent.Notify(dataplane.Notification{Kind: dataplane.NotifyHighLatency})
	})
	e.sim.Run(netsim.Second)
	if len(diags) != 1 {
		t.Fatalf("diagnoses = %d, want 1 (duplicate suppressed)", len(diags))
	}
	if e.ctrl.Bytes.DuplicateNotifications != 1 {
		t.Errorf("duplicate notifications = %d, want 1", e.ctrl.Bytes.DuplicateNotifications)
	}
}

func TestQuietOnlyOnceEveryTriggerIsDiagnosed(t *testing.T) {
	// Every controller→switch request is lost, so each collection backs off
	// through the whole retry budget and finalizes partial. A second
	// notification lands inside the first one's response window and waits
	// for it. Quiet must be false while either is owed, and true otherwise.
	chCfg := ctrlchan.Config{
		ToSwitch: ctrlchan.DirConfig{Loss: 1, Latency: netsim.Millisecond},
		Seed:     51,
	}
	e := newLossyEnv(t, 51, DefaultConfig(), chCfg)
	// Half a millisecond off the probes' grid, so no probe ties with it.
	const second = 300*netsim.Millisecond + netsim.Millisecond/2
	var done []netsim.Time
	e.ctrl.OnDiagnosis = func(d Diagnosis) {
		if !d.Partial() || !e.ctrl.Quiet() {
			t.Errorf("diagnosis at %v: partial=%v, quiet=%v; want both", d.Time, d.Partial(), e.ctrl.Quiet())
		}
		done = append(done, d.Time)
	}
	notify := func() { e.agent.Notify(dataplane.Notification{Kind: dataplane.NotifyHighLatency}) }
	e.sim.At(0, notify)
	e.sim.At(second, notify)

	type probe struct {
		at                netsim.Time
		quiet, backingOff bool
		waiting           bool
		diagnosesSoFar    int
	}
	var probes []probe
	var tick func()
	tick = func() {
		p := probe{at: e.sim.Now(), quiet: e.ctrl.Quiet(), waiting: e.ctrl.suppressed != nil, diagnosesSoFar: len(done)}
		p.backingOff = e.ctrl.collecting > 0 && e.ctrl.Bytes.Retries > 0
		for _, r := range e.ctrl.outstanding {
			if r.kind == reqCollect {
				p.backingOff = false
			}
		}
		probes = append(probes, p)
		if e.sim.Now() < netsim.Second {
			e.sim.After(netsim.Millisecond, tick)
		}
	}
	e.sim.At(netsim.Millisecond, tick)
	e.sim.Run(2 * netsim.Second)

	if len(done) != 2 {
		t.Fatalf("diagnoses = %d, want 2", len(done))
	}
	var sawBackoff, sawWaiting bool
	for _, p := range probes {
		want := true
		switch {
		case p.diagnosesSoFar == 0:
			want = false
			sawBackoff = sawBackoff || p.backingOff
		case p.at >= second && p.diagnosesSoFar == 1:
			want = false
			sawWaiting = sawWaiting || p.waiting
		}
		if p.quiet != want {
			t.Fatalf("at %v after %d diagnoses (finalized at %v): quiet=%v, want %v", p.at, p.diagnosesSoFar, done, p.quiet, want)
		}
	}
	if !sawBackoff || !sawWaiting {
		t.Errorf("probes never saw a collection backing off (%v) or a suppressed trigger waiting (%v)", sawBackoff, sawWaiting)
	}
}
