package controlplane

import (
	"runtime/debug"
	"slices"
	"testing"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
	"mars/internal/workload"
)

// fillRings runs every ordered host pair of e's fabric as a 10 pps flow
// until the given time: every edge switch sinks telemetry from every edge
// switch, 80 records a second, and its 512-record ring is full by 6.4 s.
func fillRings(e *env, until netsim.Time) {
	key := netsim.FlowKey(0)
	for _, src := range e.ft.HostIDs {
		for _, dst := range e.ft.HostIDs {
			if src == dst {
				continue
			}
			key++
			f := &workload.Flow{Src: src, Dst: dst, Key: key, RatePPS: 10,
				Gaps: workload.GapConstant, Start: 0, Stop: until}
			f.Install(e.sim)
		}
	}
	e.sim.Run(until)
}

// testTrigger is a notification for a collection started by hand.
func testTrigger(e *env, at netsim.Time) dataplane.Notification {
	return dataplane.Notification{Kind: dataplane.NotifyHighLatency, Switch: e.ft.EdgeIDs[0], Time: at}
}

// perRun is how many calls each measured run of an allocation guard makes:
// testing.AllocsPerRun divides allocations by runs in integer arithmetic,
// so growth amortized below one allocation per call shows only across many
// calls.
const perRun = 100

// repeat makes f one measured run of perRun calls. The guards measure
// with the collector paused (debug.SetGCPercent(-1)): a collection cycle's
// own allocations (a few per cycle under -race) would otherwise count against f. So
// a guard whose f allocates keeps its runs few: nothing is freed until the
// guard resumes the collector.
func repeat(f func()) func() {
	return func() {
		for i := 0; i < perRun; i++ {
			f()
		}
	}
}

// TestRefreshNothingNewAllocs: once the watermarks have caught up, a
// refresh round over every sink allocates nothing — no record slice is
// copied only to be filtered away.
func TestRefreshNothingNewAllocs(t *testing.T) {
	e := newEnv(t, 46)
	fillRings(e, 2*netsim.Second)
	e.ctrl.Refresh() // catch every watermark up
	for _, sw := range e.ft.EdgeIDs {
		if got := e.agent.regs.Arrived(sw, e.ctrl.lastSeen[sw]); len(got) != 0 {
			t.Fatalf("s%d still has %d records past its watermark", sw, len(got))
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(20, repeat(e.ctrl.Refresh)); avg != 0 {
		t.Errorf("%d refresh rounds with nothing new allocate %.2f objects, want 0", perRun, avg)
	}
}

// TestRefreshNewRecordsAllocs: a warm refresh round over rings that hold a
// refresh period of new records at every sink — pulled, fed to the
// reservoirs, and turned into threshold pushes — allocates nothing. The
// agent reads every ring into one reused slice, the response lends it to
// the controller, and each push lends its switch's entries to the channel.
func TestRefreshNewRecordsAllocs(t *testing.T) {
	e := newEnv(t, 46)
	fillRings(e, 3*netsim.Second)
	watermark := make(map[topology.NodeID]netsim.Time)
	for _, sw := range e.ft.EdgeIDs {
		snap := e.prog.RTSnapshot(nil, sw)
		watermark[sw] = snap[len(snap)-1].Arrival - e.ctrl.Cfg.RefreshPeriod
	}
	pushes := e.ctrl.Bytes.ThresholdPushBytes
	round := func() {
		for _, sw := range e.ft.EdgeIDs {
			e.ctrl.lastSeen[sw] = watermark[sw]
		}
		e.ctrl.Refresh()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(20, repeat(round)); avg != 0 {
		t.Errorf("%d refresh rounds of new records allocate %.2f objects, want 0", perRun, avg)
	}
	if e.ctrl.Bytes.RefreshBytes == 0 || e.ctrl.Bytes.ThresholdPushBytes == pushes {
		t.Fatalf("the rounds refreshed %d bytes and pushed %d new bytes; the guard measured too little",
			e.ctrl.Bytes.RefreshBytes, e.ctrl.Bytes.ThresholdPushBytes-pushes)
	}
}

// TestCollectionAllocs: a warm collection over n sinks allocates one
// record slice — the exact-size one its diagnosis keeps. The agent reads
// each ring into one reused slice, and the controller stages what the
// responses lend it in a buffer it reuses across collections. The
// bookkeeping is the same over empty rings, whose diagnoses hold no
// record, so the difference between the two counts is the record slices.
func TestCollectionAllocs(t *testing.T) {
	collect := func(e *env) float64 {
		e.ctrl.OnDiagnosis = func(Diagnosis) {}
		note := testTrigger(e, 0)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(3, repeat(func() { e.ctrl.startCollection(note) }))
	}
	empty := newEnv(t, 46)
	full := newEnv(t, 46)
	fillRings(full, 2*netsim.Second)
	n := len(full.ft.EdgeIDs)
	for _, sw := range full.ft.EdgeIDs {
		if len(full.prog.RTSnapshot(nil, sw)) == 0 {
			t.Fatalf("s%d holds no record; the count would miss its snapshot", sw)
		}
	}
	base, got := collect(empty), collect(full)
	if got-base != perRun {
		t.Errorf("%d collections over %d sinks allocate %.0f record slices (%.0f objects, %.0f over empty rings), want %d",
			perRun, n, got-base, got, base, perRun)
	}
}

// sendTap is a Transport that copies the records of every collect
// response as it is sent, before the agent's next request reuses them.
type sendTap struct {
	ctrlchan.Transport
	sent map[uint64][][]dataplane.RTRecord
}

func (s *sendTap) Send(d ctrlchan.Direction, m ctrlchan.Message, deliver func(ctrlchan.Message)) {
	if m.Kind == ctrlchan.KindCollectResponse {
		s.sent[m.Seq] = append(s.sent[m.Seq], slices.Clone(m.Records))
	}
	s.Transport.Send(d, m, deliver)
}

// TestCollectionKeepsResponseArrivalOrder: over a lossy, jittered,
// reordering channel, a diagnosis's records are the records of the
// responses its collection accepted — the first answer from each sink
// that is still owed one, retried attempts included — as the agent sent
// them, concatenated in the order those responses arrived. The channel
// delivers each response after the agent has reused its storage, so a
// delivery that did not carry its own copy would not match what was sent.
func TestCollectionKeepsResponseArrivalOrder(t *testing.T) {
	e := newLossyEnv(t, 46, DefaultConfig(), ctrlchan.Lossy(0.2, 46))
	tap := &sendTap{Transport: e.agent.tr, sent: make(map[uint64][][]dataplane.RTRecord)}
	e.agent.tr = tap
	want := make(map[dataplane.Notification][]dataplane.RTRecord)
	order := make(map[dataplane.Notification][]topology.NodeID)
	mine := make(map[dataplane.Notification]bool)
	var diags, reordered, retried int
	e.agent.up = func(m ctrlchan.Message) {
		if r, ok := e.ctrl.outstanding[m.Seq]; ok && m.Kind == ctrlchan.KindCollectResponse && r.col.pending[r.sw] {
			if r.attempt > 0 {
				retried++
			}
			// A duplicated request is answered twice under one Seq.
			i := slices.IndexFunc(tap.sent[m.Seq], func(recs []dataplane.RTRecord) bool { return slices.Equal(recs, m.Records) })
			if i < 0 {
				t.Fatalf("the response to seq %d delivers %d records the agent never sent", m.Seq, len(m.Records))
			}
			want[r.col.trigger] = append(want[r.col.trigger], tap.sent[m.Seq][i]...)
			order[r.col.trigger] = append(order[r.col.trigger], r.sw)
		}
		e.ctrl.Deliver(m)
	}
	e.ctrl.OnDiagnosis = func(d Diagnosis) { // the fabric's own notifications raise diagnoses too
		if mine[d.Trigger] {
			diags++
		}
		if !slices.IsSorted(order[d.Trigger]) { // requests go out in ascending sink order
			reordered++
		}
		if !slices.Equal(d.Records, want[d.Trigger]) {
			t.Errorf("diagnosis at %v: %d records, not the %d its accepted responses carried, in arrival order",
				d.Trigger.Time, len(d.Records), len(want[d.Trigger]))
		}
		if len(d.Records) != cap(d.Records) {
			t.Errorf("diagnosis at %v: %d records in a slice of capacity %d, want exact size", d.Trigger.Time, len(d.Records), cap(d.Records))
		}
	}
	const collections = 20
	for i := 0; i < collections; i++ {
		note := testTrigger(e, netsim.Second+netsim.Time(i)*100*netsim.Millisecond)
		mine[note] = true
		e.sim.At(note.Time, func() { e.ctrl.startCollection(note) })
	}
	fillRings(e, 4*netsim.Second)
	if diags != collections {
		t.Fatalf("%d of %d collections finalized", diags, collections)
	}
	if reordered == 0 || retried == 0 {
		t.Fatalf("%d collections were answered out of sink order and %d responses answered a retry; the channel tested too little", reordered, retried)
	}
}

// BenchmarkCollection is one refresh round and one diagnosis over filled
// k=4 rings on the in-simulator channel. Every round pulls the last
// refresh period of every ring again, as a periodic round does, and the
// diagnosis collects all eight rings whole.
func BenchmarkCollection(b *testing.B) {
	e := newEnv(b, 46)
	fillRings(e, 7*netsim.Second)
	watermark := make(map[topology.NodeID]netsim.Time)
	for _, sw := range e.ft.EdgeIDs {
		snap := e.prog.RTSnapshot(nil, sw)
		if len(snap) < 512 {
			b.Fatalf("s%d holds %d records; its ring is not full", sw, len(snap))
		}
		watermark[sw] = snap[len(snap)-1].Arrival - e.ctrl.Cfg.RefreshPeriod
	}
	var records int
	e.ctrl.OnDiagnosis = func(d Diagnosis) { records = len(d.Records) }
	note := testTrigger(e, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sw := range e.ft.EdgeIDs {
			e.ctrl.lastSeen[sw] = watermark[sw]
		}
		e.ctrl.Refresh()
		e.ctrl.startCollection(note)
	}
	b.StopTimer()
	if records != 8*512 {
		b.Fatalf("the diagnosis carried %d records, want 8 full rings", records)
	}
}
