package rca

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mars/internal/controlplane"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// perFlowThr gives every fifth flow a threshold above badLatency, so a
// classification that held a record to another flow's threshold shows.
var perFlowThr = ThresholdFunc(func(flow dataplane.FlowID) netsim.Time {
	if (flow.Src+flow.Sink)%5 == 0 {
		return 100 * netsim.Millisecond
	}
	return 10 * netsim.Millisecond
})

// interleavedWindow is a window whose flows each alternate over 2-4 of
// their equal-cost paths record by record, late and lossy over agg0 ->
// core0 and healthy elsewhere.
func interleavedWindow(tb testing.TB, f *fixture) []dataplane.RTRecord {
	tb.Helper()
	e := f.ft.EdgeIDs
	link := []topology.NodeID{f.ft.AggIDs[0], f.ft.CoreIDs[0]}
	var recs []dataplane.RTRecord
	for n, pair := range [][2]topology.NodeID{{e[0], e[2]}, {e[0], e[4]}, {e[1], e[6]}, {e[4], e[6]}, {e[5], e[3]}} {
		paths := f.ft.AllShortestPaths(pair[0], pair[1])[:2+n%3]
		for ep := uint32(0); ep < 4; ep++ {
			for _, p := range paths {
				if p.Contains(link) {
					r := f.record(tb, p, ep, badLatency, 40, 30)
					r.SinkCount = 10
					recs = append(recs, r)
				} else {
					recs = append(recs, f.record(tb, p, ep, okLatency, 20, 1))
				}
			}
		}
	}
	return recs
}

// TestIndexMatchesPerRecordOracle holds the flow-numbered index and both
// entry points to the per-record reference of oracle_test.go: the same
// classification, the same affected set and the same culprit lists, on
// every fixture of weighted_test.go and on the inputs that single out one
// layer of the index each.
func TestIndexMatchesPerRecordOracle(t *testing.T) {
	f := newFixture(t)
	type input struct {
		name    string
		records []dataplane.RTRecord
		now     netsim.Time
	}
	var inputs []input
	for _, sc := range scenarios(t, f) {
		inputs = append(inputs, input{sc.name, sc.records, 500 * netsim.Millisecond})
	}
	inputs = append(inputs,
		input{"loss-window", lossWindow(t, f, 9), 400 * netsim.Millisecond},
		input{"interleaved-paths", interleavedWindow(t, f), 400 * netsim.Millisecond},
		input{"ecmp-skew", f.ecmpRecords(t), 500 * netsim.Millisecond},
		// RecentWindow is 400 ms: at 600 ms it trusts epochs 2 and 3 only,
		// at 5 s none.
		input{"recent-window-excludes-some", lossWindow(t, f, 9), 600 * netsim.Millisecond},
		input{"recent-window-excludes-all", lossWindow(t, f, 9), 5 * netsim.Second},
		input{"empty", nil, 400 * netsim.Millisecond},
	)
	undecodable := interleavedWindow(t, f)
	for i := range undecodable {
		if i%3 == 0 {
			undecodable[i].PathID = pathid.ID(0xdead0000 + i%2)
		}
	}
	inputs = append(inputs, input{"undecodable-path-ids", undecodable, 400 * netsim.Millisecond})
	// One flow with more epochs and more PathIDs than a chain holds
	// (maxChain), each epoch on two paths: the pairs past the chain are
	// remembered by the spill map, and counted and decoded once all the
	// same — the second path's records, which alone show loss, never count.
	var long []dataplane.RTRecord
	for n, p := range f.ft.AllShortestPaths(f.ft.EdgeIDs[0], f.ft.EdgeIDs[2])[:2] {
		for ep := uint32(0); ep < 3*maxChain; ep++ {
			r := f.record(t, p, ep*7919, badLatency, 40, 30)
			r.SinkCount, r.Arrival = uint32(40-40*n), 400*netsim.Millisecond
			if ep%2 == 1 {
				r.PathID = pathid.ID(0xbeef0000 + ep/4)
			}
			long = append(long, r)
		}
	}
	inputs = append(inputs, input{"long-chains", long, 400 * netsim.Millisecond})
	// The same records in another order: whatever the reference's output
	// depends on record order for, the index's does too and no more.
	rng := rand.New(rand.NewSource(18))
	for _, base := range []int{1, 4, 5, 6, 7, len(inputs) - 1} {
		shuffled := append([]dataplane.RTRecord(nil), inputs[base].records...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		inputs = append(inputs, input{inputs[base].name + "/shuffled", shuffled, inputs[base].now})
	}

	compound := DefaultConfig()
	compound.CompoundCauses = true
	extended := New(DefaultConfig(), f.table, perFlowThr)
	extended.RegisterSignature("heavy-flow", func(ev PatternEvidence) (SignatureMatch, bool) {
		for _, fe := range ev.Flows {
			if fe.PacketsThroughPattern > 200 {
				return SignatureMatch{Cause: CauseExtensionBase, Level: LevelFlow, Flow: fe.Flow, Weight: fe.PeakEpochRate}, true
			}
		}
		return SignatureMatch{}, false
	})
	analyzers := []struct {
		name string
		a    *Analyzer
	}{
		{"default", New(DefaultConfig(), f.table, perFlowThr)},
		{"one-threshold", analyzer(f)},
		{"compound", New(compound, f.table, perFlowThr)},
		{"extension", extended},
		{"no-thresholds", New(DefaultConfig(), f.table, nil)},
	}
	absent := dataplane.FlowID{Src: 9999, Sink: 9998}
	seen := make(map[Cause]bool)
	for _, in := range inputs {
		for _, an := range analyzers {
			a, name := an.a, in.name+"/"+an.name
			ev := evidence{records: in.records, now: in.now}
			ix, ref := a.index(ev), a.refIndex(ev)
			if !reflect.DeepEqual(ix.over, ref.over) || ix.overRecords != ref.overRecords {
				t.Errorf("%s: classification diverges: %d over, reference %d", name, ix.overRecords, ref.overRecords)
			}
			affected := make(map[dataplane.FlowID]bool)
			for n, is := range a.dropAffectedFlows(ix) {
				if is {
					affected[ix.flowIDs[n]] = true
				}
			}
			if want := a.refDropAffectedFlows(ev); !reflect.DeepEqual(affected, want) {
				t.Errorf("%s: affected flows %v, reference %v", name, affected, want)
			}
			a.estimate(ix)
			if !reflect.DeepEqual(ix.entries, ref.entries) {
				t.Errorf("%s: estimate diverges from the per-record decode", name)
			}

			got, want := a.AnalyzeWindow(in.records, in.now, 0.75), a.refAnalyzeWindow(in.records, in.now, 0.75)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: AnalyzeWindow\n got %v\nwant %v", name, got, want)
			}
			for _, c := range got {
				seen[c.Cause] = true
			}
			triggers := []dataplane.Notification{
				{Kind: dataplane.NotifyHighLatency},
				{Kind: dataplane.NotifyDrop, Flow: absent},
			}
			if len(in.records) > 0 {
				// Flag a flow the records do hold: the last record's, which
				// in the drop fixtures is a healthy one.
				triggers = append(triggers, dataplane.Notification{Kind: dataplane.NotifyDrop, Flow: in.records[len(in.records)-1].Flow})
			}
			for _, trig := range triggers {
				d := controlplane.Diagnosis{Trigger: trig, Time: in.now, Records: in.records}
				got, want := a.Analyze(d), a.refAnalyze(d)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Analyze(%v trigger on %v)\n got %v\nwant %v", name, trig.Kind, trig.Flow, got, want)
				}
				for _, c := range got {
					seen[c.Cause] = true
				}
			}
		}
	}
	// Agreement on empty lists would prove nothing: between them the
	// inputs must reach every signature the changed code feeds.
	for _, c := range []Cause{CauseMicroBurst, CauseECMPImbalance, CauseProcessRate, CauseDelay, CauseDrop, CauseLinkDegrade, CauseExtensionBase} {
		if !seen[c] {
			t.Errorf("no input produced a %v culprit", c)
		}
	}
}

// countingThr records every ThresholdOf call.
type countingThr struct{ calls []dataplane.FlowID }

func (c *countingThr) ThresholdOf(flow dataplane.FlowID) netsim.Time {
	c.calls = append(c.calls, flow)
	return 10 * netsim.Millisecond
}

// TestThresholdOfOncePerFlow: an analysis asks for each flow's threshold
// once, in the order the flows first appear — the controller creates a
// flow's reservoir on that call, so the order is part of its state.
func TestThresholdOfOncePerFlow(t *testing.T) {
	f := newFixture(t)
	recs := interleavedWindow(t, f)
	var want []dataplane.FlowID
	seen := make(map[dataplane.FlowID]bool)
	for _, r := range recs {
		if !seen[r.Flow] {
			seen[r.Flow] = true
			want = append(want, r.Flow)
		}
	}
	thr := &countingThr{}
	a := New(DefaultConfig(), f.table, thr)
	a.AnalyzeWindow(recs, 400*netsim.Millisecond, 1)
	if !reflect.DeepEqual(thr.calls, want) {
		t.Errorf("AnalyzeWindow: ThresholdOf calls %v, want one per flow in first-appearance order %v", thr.calls, want)
	}
	thr.calls = nil
	a.Analyze(controlplane.Diagnosis{Trigger: dataplane.Notification{Kind: dataplane.NotifyDrop, Flow: recs[0].Flow}, Records: recs})
	if !reflect.DeepEqual(thr.calls, want) {
		t.Errorf("Analyze: ThresholdOf calls %v, want %v", thr.calls, want)
	}
}

// TestQuietWindowNeverDecodes: the estimate is the index's second layer. A
// healthy window leaves it unbuilt — no view had anything to mine, so no
// path was decoded — and a window both views mine builds it once.
func TestQuietWindowNeverDecodes(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	_, miss := f.pathsThrough([]topology.NodeID{f.ft.AggIDs[0], f.ft.CoreIDs[0]})
	var quiet []dataplane.RTRecord
	for ep := uint32(0); ep < 4; ep++ {
		for _, p := range miss[:24] {
			quiet = append(quiet, f.record(t, p, ep, okLatency, 20, 1))
		}
	}
	// A blip under the MinAbnormalRecords noise floor is still quiet.
	quiet[0].Latency = badLatency
	if got := a.AnalyzeWindow(quiet, 400*netsim.Millisecond, 1); len(got) != 0 {
		t.Fatalf("healthy window produced culprits: %v", got)
	}
	// AnalyzeWindow's two views, on an index the test can look into.
	ix := a.index(evidence{records: quiet, now: 400 * netsim.Millisecond})
	if lat, affected := a.analyzeLatency(ix), a.dropAffectedFlows(ix); lat != nil || slices.Contains(affected, true) {
		t.Fatalf("healthy window: latency view %v, affected flows %v", lat, affected)
	}
	if ix.entries != nil || ix.stats != nil {
		t.Error("a healthy window built the estimate: every path was decoded for nothing")
	}

	ix = a.index(evidence{records: lossWindow(t, f, 9), now: 400 * netsim.Millisecond})
	lat := a.analyzeLatency(ix)
	if len(lat) == 0 || ix.entries == nil {
		t.Fatalf("latency view of the loss window: %d culprits, entries built: %v", len(lat), ix.entries != nil)
	}
	built, stats := &ix.entries[0], &ix.stats[0]
	if drop := a.analyzeDrop(ix, a.dropAffectedFlows(ix)); len(drop) == 0 {
		t.Fatal("drop view of the loss window found nothing")
	}
	if &ix.entries[0] != built || &ix.stats[0] != stats {
		t.Error("the drop view rebuilt a layer the latency view had built")
	}
}

// TestDropEvidenceMemoryBoundedByRecords: a record's Epoch is whatever the
// frame off the wire says. One flow with epochs 0 and 2^32-1 must cost
// what the same flow with epochs 0 and 1 costs — memory by records, never
// by the span of their epochs.
func TestDropEvidenceMemoryBoundedByRecords(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	p := f.ft.AllShortestPaths(f.ft.EdgeIDs[0], f.ft.EdgeIDs[2])[0]
	window := func(last uint32) []dataplane.RTRecord {
		var recs []dataplane.RTRecord
		for _, ep := range []uint32{0, last, 0, last} {
			r := f.record(t, p, ep, okLatency, 40, 1)
			r.SinkCount = 10
			r.Arrival = 400 * netsim.Millisecond
			recs = append(recs, r)
		}
		return recs
	}
	measure := func(recs []dataplane.RTRecord) (allocs float64, bytes uint64) {
		var culprits int
		allocs = testing.AllocsPerRun(10, func() {
			culprits = len(a.AnalyzeWindow(recs, 400*netsim.Millisecond, 1))
		})
		if culprits == 0 {
			t.Fatal("the lossy flow produced no culprit: the drop view did not run")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a.AnalyzeWindow(recs, 400*netsim.Millisecond, 1)
		runtime.ReadMemStats(&after)
		return allocs, after.TotalAlloc - before.TotalAlloc
	}
	nearAllocs, nearBytes := measure(window(1))
	farAllocs, farBytes := measure(window(math.MaxUint32))
	// Not exact equality: a few appends run in map order (see
	// TestAnalyzeCostIndependentOfPathCount).
	if math.Abs(farAllocs-nearAllocs) > 0.05*nearAllocs {
		t.Errorf("epochs {0, 2^32-1} cost %.0f allocations, epochs {0, 1} cost %.0f", farAllocs, nearAllocs)
	}
	// A bitset over the span would be 512 MiB; the room left is for the
	// same jitter and the runtime's own bookkeeping.
	if farBytes > nearBytes+64<<10 {
		t.Errorf("epochs {0, 2^32-1} allocated %d bytes, epochs {0, 1} allocated %d", farBytes, nearBytes)
	}
	// And the aggregation itself: each (flow, epoch) counted once, so the
	// flow lost 2 x 30 packets whichever epochs they were.
	if got := a.dropAffectedFlows(a.index(evidence{records: window(math.MaxUint32), now: 400 * netsim.Millisecond})); len(got) != 1 || !got[0] {
		t.Errorf("affected = %v, want the one flow", got)
	}
}
