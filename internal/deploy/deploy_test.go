package deploy

import (
	"maps"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"mars/internal/controlplane"
	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/rca"
	"mars/internal/stream"
	"mars/internal/topology"
)

// buildOnce caches the default scenario's capture: the sim run is the
// expensive part and is identical for every test that needs it.
var (
	buildMu  sync.Mutex
	buildCap *Capture
)

func defaultCapture(t *testing.T) *Capture {
	t.Helper()
	buildMu.Lock()
	defer buildMu.Unlock()
	if buildCap == nil {
		c, err := Build(DefaultScenario())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		buildCap = c
	}
	return buildCap
}

// launchInProcess wires a controller node and one switch node per group
// inside the test process — same transports, sockets, and replay logic as
// the multi-process launcher, minus fork/exec. Group absent (-1 for none)
// gets no node: its socket is closed and its switches never answer.
func launchInProcess(t *testing.T, c *Capture, absent int) (*ControllerNode, []*SwitchNode) {
	t.Helper()
	return launchInProcessWith(t, c, absent, nil)
}

// launchInProcessWith is launchInProcess with rewire, if not nil, applied
// to the controller node before anything starts.
func launchInProcessWith(t *testing.T, c *Capture, absent int, rewire func(*ControllerNode)) (*ControllerNode, []*SwitchNode) {
	t.Helper()
	groups := GroupSwitches(c.Sys.FT, c.Scenario.Groups)
	conns, pm, err := AllocatePorts(groups)
	if err != nil {
		t.Fatal(err)
	}
	swAddrs, err := pm.SwitchAddrs()
	if err != nil {
		t.Fatal(err)
	}
	ctrlAddr, err := pm.ControllerAddr()
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewControllerNode(c, conns[0], swAddrs)
	diags := new([]controlplane.Diagnosis)
	kept.Store(ctrl, diags)
	ctrl.OnDiagnosis = func(d controlplane.Diagnosis, _ []rca.Culprit) { *diags = append(*diags, d) }
	if rewire != nil {
		rewire(ctrl)
	}
	var nodes []*SwitchNode
	for i, g := range groups {
		if i == absent {
			conns[i+1].Close()
			continue
		}
		nodes = append(nodes, NewSwitchNode(c, g, conns[i+1], ctrlAddr))
	}
	t.Cleanup(func() {
		ctrl.Stop()
		for _, n := range nodes {
			n.Stop()
		}
		kept.Delete(ctrl)
	})
	ctrl.Start()
	for _, n := range nodes {
		n.Start()
	}
	return ctrl, nodes
}

// kept holds each launched controller node's diagnoses, which the node's
// OnDiagnosis hook appends on its loop.
var kept sync.Map // *ControllerNode → *[]controlplane.Diagnosis

// diagnosesOf returns the node's diagnoses so far, read on its loop.
func diagnosesOf(n *ControllerNode) []controlplane.Diagnosis {
	diags, _ := kept.Load(n)
	var out []controlplane.Diagnosis
	n.loop.Run(func() { out = append(out, *diags.(*[]controlplane.Diagnosis)...) })
	return out
}

// assertNoLateDiagnosis waits out the fixed 300 ms drain the settle rule
// replaced and fails if a diagnosis finalized in it. It returns the count.
func assertNoLateDiagnosis(t *testing.T, ctrl *ControllerNode) int {
	t.Helper()
	settled := len(diagnosesOf(ctrl))
	time.Sleep(300 * time.Millisecond) //mars:wallclock the drain the settle rule replaced
	if late := len(diagnosesOf(ctrl)) - settled; late != 0 {
		t.Errorf("%d diagnoses finalized in the 300 ms after the run settled with %d", late, settled)
	}
	return settled
}

// TestGroupSwitchesCoversAll verifies the process grouping hosts every
// switch exactly once (threshold pushes must be routable to all of them).
func TestGroupSwitchesCoversAll(t *testing.T) {
	c := defaultCapture(t)
	for _, n := range []int{1, 2, 4, 7} {
		groups := GroupSwitches(c.Sys.FT, n)
		seen := make(map[topology.NodeID]int)
		for _, g := range groups {
			for _, sw := range g {
				seen[sw]++
			}
		}
		for _, sw := range c.Sys.FT.Switches() {
			if seen[sw] != 1 {
				t.Fatalf("n=%d: switch %d hosted %d times", n, sw, seen[sw])
			}
		}
	}
}

// TestCaptureFindsCulprit guards the ground truth: the simulated run the
// deployment replays must itself diagnose the injected fault.
func TestCaptureFindsCulprit(t *testing.T) {
	c := defaultCapture(t)
	if len(c.Expected) == 0 {
		t.Fatal("sim run produced no culprits; the deploy comparison is vacuous")
	}
	if len(c.Notes) == 0 || len(c.Diags) == 0 {
		t.Fatalf("capture incomplete: %d notes, %d diags", len(c.Notes), len(c.Diags))
	}
}

// TestLoopbackReproducesSimTop1 is the tentpole assertion: controller and
// switch groups on separate sockets, real UDP in between, and the
// resulting diagnosis must agree with the simulator's top-1 culprit.
func TestLoopbackReproducesSimTop1(t *testing.T) {
	c := defaultCapture(t)
	if len(c.Expected) == 0 {
		t.Skip("sim produced no culprits")
	}
	ctrl, nodes := launchInProcess(t, c, -1)
	if !WaitSettled(ctrl) {
		t.Error("the run ended on the backstop, not on the settle rule")
	}
	// The run settles on its last diagnosis: one per captured diagnosis,
	// and none after.
	if got := assertNoLateDiagnosis(t, ctrl); got != len(c.Diags) {
		t.Errorf("settled after %d diagnoses, the simulator made %d", got, len(c.Diags))
	} else if res := ctrl.Result(0).Diagnoses; res != got {
		t.Errorf("Result counts %d diagnoses, the node handed out %d", res, got)
	}
	want := Top1Key(c.Expected[0])
	if got := ctrl.Result(0).Got; len(got) == 0 {
		t.Fatalf("no culprits from deployment run; want top-1 %s", want)
	} else if Top1Key(got[0]) != want {
		t.Fatalf("deployment top-1 = %s, want %s", Top1Key(got[0]), want)
	}

	if ds := diagnosesOf(ctrl); len(ds) == 0 {
		t.Fatal("no diagnoses collected")
	} else {
		for _, d := range ds {
			if d.AsOf == 0 && len(d.Records) > 0 {
				t.Fatal("populated deployment diagnosis lost its sim-time anchor (AsOf=0)")
			}
		}
	}
	// The deployment accounts what it sends: each node's agent counts its
	// own responses, and the run's total is the controller's plus theirs.
	res := ctrl.Result(0)
	for _, n := range nodes {
		notes, pushes, b := n.Counts()
		if b.NotificationBytes != int64(notes)*dataplane.NotificationBytes || b.AckBytes != int64(pushes)*ctrlchan.AckBytes {
			t.Fatalf("after %d notes and %d push frames a node counted %d notification and %d ack bytes",
				notes, pushes, b.NotificationBytes, b.AckBytes)
		}
		res.AddSwitch(n)
	}
	if res.NotesSent == 0 {
		t.Fatal("no notifications replayed")
	}
	if b := res.Bytes; b.NotificationBytes != int64(res.NotesSent)*dataplane.NotificationBytes ||
		b.AckBytes <= 0 || b.CollectionBytes <= 0 || b.RefreshBytes <= 0 {
		t.Fatalf("after %d notes the run counted %d notification, %d ack, %d collection, %d refresh bytes",
			res.NotesSent, b.NotificationBytes, b.AckBytes, b.CollectionBytes, b.RefreshBytes)
	}
	if ctrl.Stats().FramesReceived.Load() == 0 {
		t.Fatal("controller transport saw no frames: the exchange did not cross sockets")
	}
}

// TestLoopbackFeedsTheStreamService runs mars-node -stream's path in
// process: the controller node hands every collected record to a
// streaming diagnosis service, which must close windows and merge
// culprits from them once the run settles.
func TestLoopbackFeedsTheStreamService(t *testing.T) {
	c := defaultCapture(t)
	ctrl, _ := launchInProcessWith(t, c, -1, func(n *ControllerNode) {
		n.Stream = stream.New(stream.DefaultConfig(c.Scenario.Seed), c.Sys.FT.PodPartition(), c.Sys.Paths)
	})
	if !WaitSettled(ctrl) {
		t.Error("the run ended on the backstop, not on the settle rule")
	}
	windows, culprits := ctrl.FinishStream()
	if windows == 0 || culprits == 0 {
		t.Fatalf("the stream service closed %d windows and merged %d culprits, want at least one of each", windows, culprits)
	}
}

// TestDeployedDiagnosesHoldTheCapturedRecords: the records of every
// complete deployed diagnosis are those of the captured diagnosis its
// trigger matches, each once. The switch nodes answer from the capture, and
// their responses cross the socket into slices the controller node's inbox
// releases for the next frames once handled, so a record lost, doubled or
// overwritten in that reuse shows here. Records are compared as multisets:
// the sinks' responses arrive in wall-clock order.
func TestDeployedDiagnosesHoldTheCapturedRecords(t *testing.T) {
	c := defaultCapture(t)
	ctrl, _ := launchInProcess(t, c, -1)
	WaitSettled(ctrl)
	count := func(recs []dataplane.RTRecord) map[dataplane.RTRecord]int {
		n := make(map[dataplane.RTRecord]int, len(recs))
		for _, r := range recs {
			n[r]++
		}
		return n
	}
	complete := 0
	for _, d := range diagnosesOf(ctrl) {
		if d.Partial() {
			continue
		}
		complete++
		want := c.Diags[c.matchDiag(d.Trigger)].Records
		if len(d.Records) != len(want) || !maps.Equal(count(d.Records), count(want)) {
			t.Errorf("the diagnosis at %v holds %d records, not the %d of its captured diagnosis", d.Trigger.Time, len(d.Records), len(want))
		}
	}
	if complete == 0 {
		t.Fatal("no complete diagnosis; the comparison is vacuous")
	}
}

// sentLog is a Transport that keeps what is sent through it, and so copies
// the records the sender only lends.
type sentLog []ctrlchan.Message

func (l *sentLog) Send(_ ctrlchan.Direction, m ctrlchan.Message, _ func(ctrlchan.Message)) {
	m.Records = slices.Clone(m.Records)
	*l = append(*l, m)
}

// TestOneAgentTwoRegisterSources puts the same requests to the one Agent
// over both Registers — the simulated run's live Program and the replay of
// its capture: the responses differ only in the records the registers hold.
func TestOneAgentTwoRegisterSources(t *testing.T) {
	c := defaultCapture(t)
	last := c.Diags[len(c.Diags)-1]
	sw := last.Records[0].Flow.Sink
	runEnd := func() netsim.Time { return netsim.Time(float64(c.Scenario.RunFor) * c.Scenario.Scale) }
	flow := dataplane.FlowID{Src: 1, Sink: sw}
	for _, src := range []struct {
		name string
		regs controlplane.Registers
	}{
		{"live", &controlplane.LiveRegisters{Program: c.Sys.Program}},
		{"replay", &replayRegisters{cap: c, now: runEnd}},
	} {
		t.Run(src.name, func(t *testing.T) {
			all := src.regs.Arrived(sw, -1)
			if len(all) < 2 {
				t.Fatalf("s%d holds %d records; the comparison is vacuous", sw, len(all))
			}
			mid := all[len(all)/2].Arrival
			var sent sentLog
			var bytes controlplane.BandwidthStats
			agent := controlplane.NewAgent(src.regs, &sent, &bytes, nil)
			reqs := []ctrlchan.Message{
				{Kind: ctrlchan.KindCollectRequest, Seq: 7, Switch: sw, Note: last.Trigger},
				{Kind: ctrlchan.KindRefreshRequest, Seq: 8, Switch: sw},
				{Kind: ctrlchan.KindRefreshRequest, Seq: 9, Switch: sw, Watermark: mid},
				{Kind: ctrlchan.KindThresholdPush, Seq: 10, Switch: sw, Thresholds: []ctrlchan.Threshold{
					{Flow: flow, Value: netsim.Millisecond}, {Flow: dataplane.FlowID{Src: 2, Sink: sw}, Value: 2 * netsim.Millisecond}}},
			}
			for _, m := range reqs {
				agent.Deliver(m)
			}
			if len(sent) != len(reqs) {
				t.Fatalf("%d requests drew %d responses", len(reqs), len(sent))
			}
			kinds := []ctrlchan.Kind{ctrlchan.KindCollectResponse, ctrlchan.KindRefreshResponse, ctrlchan.KindRefreshResponse, ctrlchan.KindThresholdAck}
			for i, got := range sent {
				if got.Kind != kinds[i] || got.Seq != reqs[i].Seq || got.Switch != sw {
					t.Errorf("request %d (%v seq %d) drew %v seq %d for s%d", i, reqs[i].Kind, reqs[i].Seq, got.Kind, got.Seq, got.Switch)
				}
			}
			collect, full, newer := sent[0], sent[1], sent[2]
			if len(collect.Records) == 0 {
				t.Error("collect response carried no records")
			}
			if len(full.Records) != len(all) {
				t.Errorf("refresh from 0: %d records, want all %d", len(full.Records), len(all))
			}
			if len(newer.Records) == 0 || len(newer.Records) >= len(all) {
				t.Errorf("refresh from %v: %d of %d records", mid, len(newer.Records), len(all))
			}
			for _, r := range newer.Records {
				if r.Arrival <= mid {
					t.Errorf("refresh from %v returned a record that arrived at %v", mid, r.Arrival)
				}
			}
			// The sender's counters price what was sent: records at
			// dataplane.RTRecordBytes, 8 B a refreshed sample, one ack frame
			// for a two-entry push.
			want := controlplane.BandwidthStats{
				CollectionBytes: int64(len(collect.Records)) * dataplane.RTRecordBytes,
				RefreshBytes:    int64(len(full.Records)+len(newer.Records)) * 8,
				AckBytes:        ctrlchan.AckBytes,
			}
			if bytes != want {
				t.Errorf("agent counted %+v, want %+v", bytes, want)
			}
		})
	}
}

// TestLoopbackWithAnAbsentSwitchGroup runs the deployment with one switch
// group's process never started. Every diagnosis still finalizes — partial,
// naming exactly that group's edge switches — the run ends on schedule, and
// everything shuts down.
func TestLoopbackWithAnAbsentSwitchGroup(t *testing.T) {
	c := defaultCapture(t)
	groups := GroupSwitches(c.Sys.FT, c.Scenario.Groups)
	// A group the first captured notification is raised outside of, so that
	// at least one diagnosis fires.
	absent, hosted := -1, map[topology.NodeID]bool{}
	for g := range groups {
		hosted = map[topology.NodeID]bool{}
		for _, sw := range groups[g] {
			hosted[sw] = true
		}
		if !hosted[c.Notes[0].Note.Switch] {
			absent = g
			break
		}
	}
	if absent < 0 {
		t.Fatal("one group hosts every switch")
	}
	var missing []topology.NodeID
	for _, sw := range c.Sys.FT.EdgeIDs {
		if hosted[sw] {
			missing = append(missing, sw)
		}
	}

	before := runtime.NumGoroutine()
	start := time.Now() //mars:wallclock the run must end on schedule
	ctrl, nodes := launchInProcess(t, c, absent)
	if !WaitSettled(ctrl) {
		t.Error("the run ended on the backstop, not on the settle rule")
	}
	// The absent group's notifications never arrive, so the run settles
	// once the last one is a response window overdue and the last
	// collection has spent its retries on the absent sinks (~50 ms); the
	// rest is scheduling slack.
	overdue := time.Duration(float64(c.Notes[len(c.Notes)-1].At)*c.Scenario.Scale) + time.Duration(scaledControllerConfig(c.Scenario).ResponseWindow)
	if took, bound := time.Since(start), overdue+500*time.Millisecond; took > bound { //mars:wallclock the run must end on schedule
		t.Errorf("run took %v, want within %v", took, bound)
	}
	diags := diagnosesOf(ctrl)
	if len(diags) == 0 {
		t.Fatal("no diagnosis finalized")
	}
	for _, d := range diags {
		got := append([]topology.NodeID(nil), d.MissingSinks...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !d.Partial() || !reflect.DeepEqual(got, missing) || d.Coverage() != 0.75 {
			t.Errorf("diagnosis missing %v with coverage %v, want %v missing and 6/8", got, d.Coverage(), missing)
		}
	}
	ctrl.Stop()
	for _, n := range nodes {
		n.Stop()
	}
	deadline := time.Now().Add(2 * time.Second) //mars:wallclock test deadline
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) { //mars:wallclock test deadline
			t.Fatalf("%d goroutines before the run, %d after every node stopped", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond) //mars:wallclock test polling
	}
}

// TestLoopbackRetriesUnderInjectedLoss drops a quarter of all fragments
// at every transport and checks the controller's retry machinery carries
// the diagnosis anyway.
func TestLoopbackRetriesUnderInjectedLoss(t *testing.T) {
	base := defaultCapture(t)
	lossy := *base
	lossy.Scenario.LossProb = 0.25
	ctrl, _ := launchInProcess(t, &lossy, -1)
	if !WaitSettled(ctrl) {
		t.Error("the run ended on the backstop, not on the settle rule")
	}
	diagnoses := assertNoLateDiagnosis(t, ctrl)
	if retries := ctrl.Result(0).Bytes.Retries; diagnoses == 0 || retries == 0 {
		t.Fatalf("under 25%% fragment loss: %d diagnoses, %d retries (want both > 0)", diagnoses, retries)
	}
	if ctrl.Stats().InjectedDrops.Load() == 0 {
		t.Fatal("loss injection never dropped a fragment")
	}
}

// retryKinds attributes each controller retry to the kind of request it
// repeats. It stands between the controller and its transport and clock:
// it notes the kind of each request sent, gives it to the deadline the
// controller arms right after the send, and counts the retries that
// deadline's timeout books. It runs on the controller node's loop.
type retryKinds struct {
	tr      ctrlchan.Transport
	clock   controlplane.Clock
	ctrl    *controlplane.Controller
	timeout netsim.Time
	last    ctrlchan.Kind
	retries map[ctrlchan.Kind]int64
}

func (k *retryKinds) Send(d ctrlchan.Direction, m ctrlchan.Message, deliver func(ctrlchan.Message)) {
	k.last = m.Kind
	k.tr.Send(d, m, deliver)
}

func (k *retryKinds) Now() netsim.Time             { return k.clock.Now() }
func (k *retryKinds) At(at netsim.Time, fn func()) { k.clock.At(at, fn) }

func (k *retryKinds) After(d netsim.Time, fn func()) {
	if d != k.timeout {
		k.clock.After(d, fn)
		return
	}
	kind := k.last
	k.clock.After(d, func() {
		before := k.ctrl.Bytes.Retries
		fn()
		k.retries[kind] += k.ctrl.Bytes.Retries - before
	})
}

// TestLoopbackRetriesByKind runs the default capture over loopback with
// no injected loss and attributes every retry the controller books to a
// request kind. The counts are logged, not asserted: they depend on how
// busy the host is. On a 2-vCPU host, runs read zero or tens of retries;
// the scaled 5 ms request deadline is what they measure.
func TestLoopbackRetriesByKind(t *testing.T) {
	c := defaultCapture(t)
	var k *retryKinds
	ctrl, _ := launchInProcessWith(t, c, -1, func(n *ControllerNode) {
		cfg := scaledControllerConfig(c.Scenario)
		k = &retryKinds{tr: n.tr, clock: n.loop, timeout: cfg.RequestTimeout, retries: map[ctrlchan.Kind]int64{}}
		on := n.ctrl.OnDiagnosis
		n.ctrl = controlplane.New(cfg, k, c.Sys.FT.Topology, k)
		n.ctrl.OnDiagnosis = on
		k.ctrl = n.ctrl
	})
	WaitSettled(ctrl)
	// The refresh loop keeps running: read both counts in one turn of it.
	var (
		byKind map[ctrlchan.Kind]int64
		booked int64
	)
	ctrl.loop.Run(func() { byKind, booked = maps.Clone(k.retries), k.ctrl.Bytes.Retries })
	var sum int64
	for _, kind := range []ctrlchan.Kind{ctrlchan.KindCollectRequest, ctrlchan.KindRefreshRequest, ctrlchan.KindThresholdPush} {
		sum += byKind[kind]
	}
	if sum != booked {
		t.Fatalf("attributed %d retries (%v), the controller booked %d", sum, byKind, booked)
	}
	diagnoses := len(diagnosesOf(ctrl))
	if diagnoses == 0 {
		t.Fatal("no diagnosis finalized")
	}
	t.Logf("%d diagnoses, %d retries: collect %d, refresh %d, push %d", diagnoses, booked,
		byKind[ctrlchan.KindCollectRequest], byKind[ctrlchan.KindRefreshRequest], byKind[ctrlchan.KindThresholdPush])
}

// TestPortMapRoundTrip checks the JSON discovery file survives a write /
// read / resolve cycle.
func TestPortMapRoundTrip(t *testing.T) {
	pm := &PortMap{
		Controller: "127.0.0.1:7000",
		Groups: []PortGroup{
			{Addr: "127.0.0.1:7001", Switches: []topology.NodeID{1, 2, 3}},
			{Addr: "127.0.0.1:7002", Switches: []topology.NodeID{4, 5}},
		},
	}
	path := t.TempDir() + "/portmap.json"
	if err := pm.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPortMap(path)
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := got.SwitchAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 5 {
		t.Fatalf("resolved %d switch addrs, want 5", len(addrs))
	}
	if addrs[4].Port != 7002 {
		t.Fatalf("switch 4 routed to port %d, want 7002", addrs[4].Port)
	}
	if _, err := got.ControllerAddr(); err != nil {
		t.Fatal(err)
	}
	var _ *net.UDPAddr = addrs[1]
}
