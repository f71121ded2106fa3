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
	"mars/internal/fsm"
	"mars/internal/hashidx"
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

// sharedBurst is a flow that bursts tenfold, late and queued, over a path
// every switch and link of which a steady flow also crosses: wherever the
// burst is blamed, it is by its share of the pattern's packets.
func sharedBurst(tb testing.TB, f *fixture) []dataplane.RTRecord {
	tb.Helper()
	e := f.ft.EdgeIDs
	burst := f.ft.AllShortestPaths(e[0], e[2])[0]
	steady := []topology.Path{burst}
	for _, p := range append(f.ft.AllShortestPaths(e[0], e[3]), f.ft.AllShortestPaths(e[1], e[2])...) {
		if slices.Equal(p[1:4], burst[1:4]) {
			steady = append(steady, p)
		}
	}
	var recs []dataplane.RTRecord
	for ep := uint32(1); ep <= 8; ep++ {
		for n, p := range steady {
			r := f.record(tb, p, ep, okLatency, 20, 1)
			if n == 0 && ep >= 4 {
				r = f.record(tb, p, ep, badLatency, 200, 30)
			}
			recs = append(recs, r)
		}
	}
	return recs
}

// TestIndexMatchesPerRecordOracle holds the flow-numbered index and both
// entry points to the per-record reference of oracle_test.go: the same
// classification, the same affected set and the same culprit lists, on
// every fixture of weighted_test.go, on the inputs that single out one layer
// of the index each, and on those that reach every entry of both signature
// chains. Whatever notification started a collection, Analyze ranks exactly
// what AnalyzeWindow ranks over the same records: the trigger kind never
// reaches the analysis.
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
	// The skewed split with a telemetry gap on every light-branch record:
	// the starved link behind the divergence carries degradation evidence,
	// and the congested links' flows are lossy.
	starved := f.ecmpRecords(t)
	for i := range starved {
		if starved[i].SourceCount == 5 {
			starved[i].EpochGap = 1
		}
	}
	inputs = append(inputs,
		input{"loss-window", lossWindow(t, f, 9), 400 * netsim.Millisecond},
		input{"interleaved-paths", interleavedWindow(t, f), 400 * netsim.Millisecond},
		input{"ecmp-skew", f.ecmpRecords(t), 500 * netsim.Millisecond},
		input{"ecmp-starved-branch", starved, 500 * netsim.Millisecond},
		input{"burst-shared", sharedBurst(t, f), 800 * netsim.Millisecond},
		input{"flap", flapWindow(t, f), 700 * netsim.Millisecond},
		input{"reboot", rebootWindow(t, f), 400 * netsim.Millisecond},
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
	// One flow with 192 epochs and 48 made-up PathIDs besides its two
	// paths', each epoch on both paths: every (flow, epoch) and
	// (flow, PathID) is counted and decoded once, on its first record — the
	// second path's records, which alone show loss, never count.
	var long []dataplane.RTRecord
	for n, p := range f.ft.AllShortestPaths(f.ft.EdgeIDs[0], f.ft.EdgeIDs[2])[:2] {
		for ep := uint32(0); ep < 192; ep++ {
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
	analyzers := []struct {
		name string
		a    *Analyzer
	}{
		{"default", New(DefaultConfig(), f.table, perFlowThr)},
		{"one-threshold", analyzer(f)},
		{"compound", New(compound, f.table, perFlowThr)},
		{"no-thresholds", New(DefaultConfig(), f.table, nil)},
	}
	absent := dataplane.FlowID{Src: 9999, Sink: 9998}
	seen := make(map[Cause]bool)
	for _, in := range inputs {
		for _, an := range analyzers {
			a, name := an.a, in.name+"/"+an.name
			ix, ref := a.index(in.records, in.now), a.refIndex(in.records)
			if !reflect.DeepEqual(ix.over, ref.over) || ix.overRecords != ref.overRecords {
				t.Errorf("%s: classification diverges: %d over, reference %d", name, ix.overRecords, ref.overRecords)
			}
			affected := make(map[dataplane.FlowID]bool)
			for n, is := range a.dropAffectedFlows(ix) {
				if is {
					affected[ix.flowIDs[n]] = true
				}
			}
			if want := a.refDropAffectedFlows(in.records, in.now); !reflect.DeepEqual(affected, want) {
				t.Errorf("%s: affected flows %v, reference %v", name, affected, want)
			}
			// Record i's row decodes to the per-record path, and each row's
			// over/under are the sums of its records' reference weights.
			a.estimate(ix)
			over, under := make([]int, len(ix.paths)), make([]int, len(ix.paths))
			for i, e := range ref.entries {
				row := ix.pathOf[i]
				if ix.paths[row].flow != ix.flowOf[i] || !reflect.DeepEqual(ix.paths[row].path, e.path) {
					t.Fatalf("%s: record %d is on row %+v, the per-record decode says path %v", name, i, ix.paths[row], e.path)
				}
				if ref.over[i] {
					over[row] += e.weight
				} else {
					under[row] += e.weight
				}
			}
			for row, ps := range ix.paths {
				if ps.over != over[row] || ps.under != under[row] {
					t.Errorf("%s: row %d weighs %d over + %d under, its records sum to %d + %d", name, row, ps.over, ps.under, over[row], under[row])
				}
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
				d := controlplane.Diagnosis{Trigger: trig, Time: in.now, Records: in.records, Requested: 4, MissingSinks: []topology.NodeID{f.ft.EdgeIDs[7]}}
				got, want := a.Analyze(d), a.refAnalyze(d)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Analyze(%v trigger on %v)\n got %v\nwant %v", name, trig.Kind, trig.Flow, got, want)
				}
				if window := a.AnalyzeWindow(d.Records, d.Time, d.Coverage()*d.ReconstructionConfidence()); !reflect.DeepEqual(got, window) {
					t.Errorf("%s: the %v trigger on %v changes the ranking\n Analyze       %v\n AnalyzeWindow %v", name, trig.Kind, trig.Flow, got, window)
				}
				for _, c := range got {
					seen[c.Cause] = true
				}
			}
		}
	}
	// Agreement on empty lists would prove nothing: between them the
	// inputs must reach every entry of both signature chains.
	for _, c := range []Cause{CauseMicroBurst, CauseECMPImbalance, CauseProcessRate, CauseDelay, CauseDrop, CauseLinkDegrade, CauseLinkFlap, CauseSwitchReboot} {
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
		t.Errorf("ThresholdOf calls %v, want one per flow in first-appearance order %v", thr.calls, want)
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
	// A blip under the minAbnormalRecords noise floor is still quiet.
	quiet[0].Latency = badLatency
	if got := a.AnalyzeWindow(quiet, 400*netsim.Millisecond, 1); len(got) != 0 {
		t.Fatalf("healthy window produced culprits: %v", got)
	}
	// AnalyzeWindow's two views, on an index the test can look into.
	ix := a.index(quiet, 400*netsim.Millisecond)
	if lat, affected := a.analyzeLatency(ix), a.dropAffectedFlows(ix); lat != nil || slices.Contains(affected, true) {
		t.Fatalf("healthy window: latency view %v, affected flows %v", lat, affected)
	}
	if ix.pathOf != nil || ix.stats != nil {
		t.Error("a healthy window built the estimate: every path was decoded for nothing")
	}

	ix = a.index(lossWindow(t, f, 9), 400*netsim.Millisecond)
	lat := a.analyzeLatency(ix)
	if len(lat) == 0 || ix.pathOf == nil {
		t.Fatalf("latency view of the loss window: %d culprits, rows built: %v", len(lat), ix.pathOf != nil)
	}
	rows, stats, epochs := &ix.paths[0], &ix.stats[0], &ix.stats[0].epochs[0]
	if drop := a.analyzeDrop(ix, a.dropAffectedFlows(ix)); len(drop) == 0 {
		t.Fatal("drop view of the loss window found nothing")
	}
	if &ix.paths[0] != rows || &ix.stats[0] != stats || &ix.stats[0].epochs[0] != epochs {
		t.Error("the drop view rebuilt a table the latency view had built")
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
	if got := a.dropAffectedFlows(a.index(window(math.MaxUint32), 400*netsim.Millisecond)); len(got) != 1 || !got[0] {
		t.Errorf("affected = %v, want the one flow", got)
	}
}

// TestFirstSeenSpreadsCollidingKeys: a frame's (flow, epoch) keys are the
// sender's to choose. 2,048 records of one flow whose epochs all share one
// home slot of the 4,096-slot table under the unkeyed hash would form one
// probe run; under the Analyzer's own seed their mean probe length must stay
// at most 2 (random keys average 1.5 at this load), and every epoch is still
// counted once.
func TestFirstSeenSpreadsCollidingKeys(t *testing.T) {
	f := newFixture(t)
	const n, slots = 2048, 4096
	base := f.record(t, f.ft.AllShortestPaths(f.ft.EdgeIDs[0], f.ft.EdgeIDs[2])[0], 0, okLatency, 40, 1)
	base.SinkCount, base.Arrival = 10, 400*netsim.Millisecond
	recs := make([]dataplane.RTRecord, 0, n)
	for e := uint32(0); len(recs) < n; e++ {
		if (hashidx.Hasher{}).Hash(uint64(e))&(slots-1) == 0 {
			r := base
			r.Epoch = e
			recs = append(recs, r)
		}
	}
	a := analyzer(f)
	ix := a.index(recs, 400*netsim.Millisecond)
	if affected := a.dropAffectedFlows(ix); len(affected) != 1 || !affected[0] || a.work.drops[0].src != 40*n {
		t.Fatalf("affected = %v, sums %+v: want the one flow, every epoch counted once", affected, a.work.drops)
	}
	seen := &a.work.seen
	if len(seen.slots) != slots {
		t.Fatalf("%d records sized the table at %d slots, want %d", n, len(seen.slots), slots)
	}
	probes := 0
	for s, v := range seen.slots {
		if v == 0 {
			continue
		}
		key := uint64(ix.flowOf[v-1])<<32 | uint64(ix.records[v-1].Epoch)
		probes += (s-int(seen.h.Hash(key)&(slots-1)))&(slots-1) + 1
	}
	if m := float64(probes) / n; m > 2 {
		t.Errorf("mean probe length %.2f over %d keys that collide unkeyed, want <= 2", m, n)
	}
}

// seenMiner is a Miner set from outside that records, per call reaching it,
// the database's sequence count and the sum of its weights.
type seenMiner struct {
	fsm.Miner
	seqs, weight *[]int
}

func (m seenMiner) Mine(db fsm.Dataset, p fsm.Params) []fsm.Pattern {
	sum := 0
	for _, w := range p.Weights {
		sum += w
	}
	*m.seqs, *m.weight = append(*m.seqs, len(db)), append(*m.weight, sum)
	return m.Miner.Mine(db, p)
}

// TestMinesOneSequencePerPath: the miner is handed one sequence per distinct
// decodable (flow, path) with failing traffic — not one per failing record —
// and the weights still sum to the failing records' capped estimates, in
// the latency view and in the drop view.
func TestMinesOneSequencePerPath(t *testing.T) {
	f := newFixture(t)
	var seqs, weight []int
	cfg := DefaultConfig()
	cfg.Miner = seenMiner{Miner: fsm.NewPrefixSpan(), seqs: &seqs, weight: &weight}
	a := New(cfg, f.table, fixedThr(10*netsim.Millisecond))

	// Twelve records per path, PathCounts on both sides of the Alg. 2 floor
	// and cap, and a few PathIDs nothing decodes.
	hit, miss := f.pathsThrough([]topology.NodeID{f.ft.AggIDs[0], f.ft.CoreIDs[0]})
	var recs []dataplane.RTRecord
	for ep := uint32(0); ep < 12; ep++ {
		for _, p := range hit[:8] {
			r := f.record(t, p, ep, badLatency, 40, 30)
			r.SinkCount = 10
			recs = append(recs, r)
		}
		for _, p := range miss[:24] {
			recs = append(recs, f.record(t, p, ep, okLatency, 20, 1))
		}
	}
	for i := range recs {
		recs[i].PathCount = uint32(i*7) % 45
		recs[i].Arrival = 1200 * netsim.Millisecond
		if i%11 == 0 {
			recs[i].PathID = pathid.ID(0xdead0000 + i%2)
		}
	}
	now := 1200 * netsim.Millisecond

	// What a per-record reading of the failing set says.
	type row struct {
		flow dataplane.FlowID
		id   pathid.ID
	}
	expect := func(failing func(i int) bool) (rows, sum int) {
		distinct := make(map[row]bool)
		for i, r := range recs {
			if _, ok := f.table.Lookup(r.Flow.Sink, r.PathID); !ok || !failing(i) {
				continue
			}
			distinct[row{r.Flow, r.PathID}] = true
			sum += min(max(int(r.PathCount), 1), maxEstimatePerRecord)
		}
		return len(distinct), sum
	}
	ix := a.index(recs, now)
	affected := a.dropAffectedFlows(ix)
	latRows, latSum := expect(func(i int) bool { return ix.over[i] })
	dropRows, dropSum := expect(func(i int) bool { return affected[ix.flowOf[i]] })
	if latRows == 0 || dropRows == 0 || len(recs) < 10*len(ix.flowIDs) {
		t.Fatalf("fixture: %d latency rows, %d drop rows, %d records", latRows, dropRows, len(recs))
	}

	if got := a.AnalyzeWindow(recs, now, 1); len(got) == 0 {
		t.Fatal("no culprits")
	}
	if want := []int{latRows, dropRows}; !reflect.DeepEqual(seqs, want) {
		t.Errorf("sequences mined (latency view, drop view) = %v, want one per failing (flow, path): %v", seqs, want)
	}
	if want := []int{latSum, dropSum}; !reflect.DeepEqual(weight, want) {
		t.Errorf("weights mined (latency view, drop view) = %v, want the failing records' capped estimates: %v", weight, want)
	}
}

// TestEpochTableKeepsMapSemantics: the (flow, epoch) rows answer what the
// three per-flow maps by epoch answered. Duplicate records of an epoch fold
// to the largest counts, whatever order they arrive in; an epoch whose
// records all say SourceCount 0 has no rate and no loss, yet is still the
// flow's earliest epoch and its telemetry gap still weighs on a starved
// branch.
func TestEpochTableKeepsMapSemantics(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	e0 := f.ft.EdgeIDs[0]
	paths := f.ft.AllShortestPaths(e0, f.ft.EdgeIDs[2])
	light, heavy := paths[0], paths[2] // out of e0 by different aggregations
	mk := func(p topology.Path, epoch, src, sink, pathCount, gap uint32) dataplane.RTRecord {
		r := f.record(t, p, epoch, okLatency, src, 1)
		r.SinkCount, r.PathCount, r.EpochGap = sink, pathCount, gap
		return r
	}
	recs := []dataplane.RTRecord{
		mk(heavy, 5, 20, 24, 40, 0),
		mk(light, 2, 0, 0, 0, 1), // not counted; earliest; its gap counts
		mk(heavy, 7, 30, 10, 40, 0),
		mk(light, 5, 25, 18, 1, 0), // epoch 5 again: larger source count
		mk(light, 7, 12, 28, 1, 0), // epoch 7 again: larger sink count
	}
	ix := a.index(recs, 800*netsim.Millisecond)
	a.signatureData(ix)
	fs := &ix.stats[0]
	if want := []epochStat{{2, 0, 0, true}, {5, 25, 24, false}, {7, 30, 28, false}}; !reflect.DeepEqual(fs.epochs, want) {
		t.Fatalf("epochs = %+v, want %+v", fs.epochs, want)
	}
	if peak, base, counted := fs.peakAndBaseline(new([]float64)); peak != 30 || base != 25 || counted != 2 {
		t.Errorf("peak, baseline, counted epochs = %d, %v, %d; want 30, 25, 2", peak, base, counted)
	}
	if got := globalMedianEpochCount(ix.stats, new([]float64)); got != 27.5 {
		t.Errorf("network-wide median rate = %v, want 27.5 over the two counted epochs", got)
	}
	// Epoch 2 makes the flow present two epochs into its sink's window, not
	// five: new there against a window from 0, not against one from 1.
	if !a.isBursty(fs, &sinkEpochRange{min: 0, max: 7}, 1) || a.isBursty(fs, &sinkEpochRange{min: 1, max: 7}, 1) {
		t.Error("the flow's earliest epoch is not its SourceCount-0 epoch 2")
	}
	// 55 packets sent, 52 seen: inside the margin. Only a gap on a counted
	// epoch makes the flow lossy here, and epoch 2's is not one.
	through := []flowPkts{{flow: 0, pkts: 1}}
	if n := a.lossFlowCount(through, ix.stats); n != 0 {
		t.Errorf("lossFlowCount = %d: the gap of an epoch that is not counted was read as loss", n)
	}
	// The starved branch's only degradation evidence is that gap epoch,
	// weighed twice: exactly minLinkEvidence.
	// (The pattern is taken as congested behind divergence switch e0.)
	ev := &patternEvidence{ix: ix, through: through, congestionKnown: true, congested: true, voteKnown: true, voted: true, up: e0}
	if want := []topology.NodeID{e0, light[1]}; !a.degradedLightBranch(ev) || !reflect.DeepEqual(ev.link, want) {
		t.Errorf("degradedLightBranch found %v; want the light link %v", ev.link, want)
	}
}

// hostileRecords is the largest frame the control channel carries
// (ctrlchan.MaxFramePayload), in records.
const hostileRecords = 69905

// hostileFrame is one late flow on one path whose every record names
// another epoch, a whole frame of it.
func hostileFrame(tb testing.TB, f *fixture) []dataplane.RTRecord {
	tb.Helper()
	p := f.ft.AllShortestPaths(f.ft.EdgeIDs[0], f.ft.EdgeIDs[2])[0]
	recs := make([]dataplane.RTRecord, hostileRecords)
	for i := range recs {
		recs[i] = f.record(tb, p, uint32(i)*7919, badLatency, 40, 30)
		recs[i].Arrival = 400 * netsim.Millisecond
	}
	return recs
}

// spreadFrame is a hostile frame of as many records spread over every
// (flow, PathID) key a k=4 fabric's 8-bit IDs allow: each edge pair in
// turn, every third record on one of its own paths and the rest on an ID
// that decodes to another flow's path or to none, every epoch distinct,
// and the flows of one source edge switch slow. It fills estimate's
// (flow, PathID) set, which hostileFrame's one key leaves empty.
func spreadFrame(tb testing.TB, f *fixture) []dataplane.RTRecord {
	tb.Helper()
	var pairs [][]topology.Path
	for _, s := range f.ft.EdgeIDs {
		for _, d := range f.ft.EdgeIDs {
			if s != d {
				pairs = append(pairs, f.ft.AllShortestPaths(s, d))
			}
		}
	}
	recs := make([]dataplane.RTRecord, hostileRecords)
	for i := range recs {
		paths, latency := pairs[i%len(pairs)], okLatency
		if paths[0][0] == f.ft.EdgeIDs[0] {
			latency = badLatency
		}
		recs[i] = f.record(tb, paths[i/len(pairs)%len(paths)], uint32(i)*7919, latency, 40, 30)
		if i%3 != 0 {
			recs[i].PathID = pathid.ID(i / len(pairs) * 37 % 256)
		}
		recs[i].Arrival = 400 * netsim.Millisecond
	}
	return recs
}

// TestSignatureDataBoundedOnHostileFrame: a hostile frame costs memory by
// its records, a handful of arrays, never an allocation per epoch or per
// (flow, PathID) key: hostileFrame's one flow and spreadFrame's thousands
// of keys alike. No wall-clock assertion; the per-flow sort keeps it
// O(n log n).
func TestSignatureDataBoundedOnHostileFrame(t *testing.T) {
	f := newFixture(t)
	const n = hostileRecords
	for name, frame := range map[string]func(testing.TB, *fixture) []dataplane.RTRecord{
		"one flow": hostileFrame, "spread": spreadFrame,
	} { //mars:mapiter-ok each frame is checked on its own
		a := analyzer(f)
		recs := frame(t, f)
		var culprits int
		allocs := testing.AllocsPerRun(1, func() {
			culprits = len(a.AnalyzeWindow(recs, 400*netsim.Millisecond, 1))
		})
		if culprits == 0 {
			t.Fatalf("%s: no culprit: the latency view had no pattern to explain", name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a.AnalyzeWindow(recs, 400*netsim.Millisecond, 1)
		runtime.ReadMemStats(&after)
		if allocs > n/10 {
			t.Errorf("%s: %d records cost %.0f allocations", name, n, allocs)
		}
		t.Logf("%s: %.0f allocations, %d bytes per record", name, allocs, (after.TotalAlloc-before.TotalAlloc)/n)
		if perRecord := (after.TotalAlloc - before.TotalAlloc) / n; perRecord > 512 {
			t.Errorf("%s: %d records allocated %d bytes each", name, n, perRecord)
		}
	}
}

// TestAnalyzerReuseCarriesNothing: an Analyzer keeps its working set from one
// analysis to the next, and nothing in it reaches the next one's output. One
// Analyzer runs the weighted_test.go scenarios, the hostile frame, an empty
// window and the scenarios again in reverse — each a different size and
// shape from the one before — and every result must equal a fresh
// Analyzer's on the same input. Its thresholds alternate between two
// sources from one input to the next, as a stream worker's analyzer serves
// one unit after another.
func TestAnalyzerReuseCarriesNothing(t *testing.T) {
	f := newFixture(t)
	const now = 500 * netsim.Millisecond
	type input struct {
		name    string
		records []dataplane.RTRecord
	}
	var forward []input
	for _, sc := range scenarios(t, f) {
		forward = append(forward, input{sc.name, sc.records})
	}
	backward := slices.Clone(forward)
	slices.Reverse(backward)
	inputs := slices.Concat(forward, []input{{"hostile-frame", hostileFrame(t, f)}, {"spread-frame", spreadFrame(t, f)}, {"empty", nil}}, backward)
	// The second source flags every record of a flow from an even source
	// switch, the healthy ones too.
	sources := []Thresholds{fixedThr(10 * netsim.Millisecond), ThresholdFunc(func(flow dataplane.FlowID) netsim.Time {
		if flow.Src%2 == 0 {
			return netsim.Millisecond
		}
		return 10 * netsim.Millisecond
	})}
	reused := analyzer(f)
	for i, in := range inputs {
		thr := sources[i%len(sources)]
		reused.Thr = thr
		got, want := reused.AnalyzeWindow(in.records, now, 1), New(DefaultConfig(), f.table, thr).AnalyzeWindow(in.records, now, 1)
		if len(want) == 0 && len(in.records) > 0 {
			t.Fatalf("#%d %s: no culprits; equal empty lists would prove nothing", i, in.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("#%d %s: a reused Analyzer ranks differently from a fresh one\n got %v\nwant %v", i, in.name, got, want)
		}
	}
	// Every part of the working set must have been reused too.
	w := &reused.work
	for name, c := range map[string]int{
		"burst counts": cap(w.counts), "ECMP prefix tree": cap(w.branches),
		"drop sums": cap(w.drops), "affected flows": cap(w.affected),
		"flow summaries": cap(w.stats), "flow order": cap(w.flows), "epoch cursor": cap(w.at),
		"epoch rows": cap(w.rows), "flow paths": cap(w.flowPaths), "sink ranges": len(w.sinkRanges),
		"scored patterns": cap(w.scored), "pattern switches": cap(w.subs), "walked culprits": cap(w.culprits),
		"first-seen table": cap(w.seen.slots),
	} { //mars:mapiter-ok each entry is checked on its own
		if c == 0 {
			t.Errorf("the inputs never reached the %s", name)
		}
	}
}
