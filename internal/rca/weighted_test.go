package rca

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/fsm"
	"mars/internal/netsim"
	"mars/internal/sbfl"
	"mars/internal/topology"
)

// scenario is one fixture diagnosis: its records and whether its fault is a
// loss, whose abnormal set is the drop view's.
type scenario struct {
	name    string
	records []dataplane.RTRecord
	drop    bool
}

// pathsThrough splits every edge-pair shortest path by whether it contains
// sub.
func (f *fixture) pathsThrough(sub []topology.NodeID) (hit, miss []topology.Path) {
	for _, src := range f.ft.EdgeIDs {
		for _, dst := range f.ft.EdgeIDs {
			if src == dst {
				continue
			}
			for _, p := range f.ft.AllShortestPaths(src, dst) {
				if p.Contains(sub) {
					hit = append(hit, p)
				} else {
					miss = append(miss, p)
				}
			}
		}
	}
	return hit, miss
}

// scenarios builds one diagnosis per paper fault kind, in the shapes the
// localization tests use, with PathCounts spread over 0..44 so the Alg. 2
// floor (0 -> 1), the cap (> 30 -> 30) and everything between are weighed.
func scenarios(tb testing.TB, f *fixture) []scenario {
	tb.Helper()
	e := f.ft.EdgeIDs
	var out []scenario
	add := func(name string, drop bool, recs []dataplane.RTRecord) {
		for i := range recs {
			recs[i].PathCount = uint32(i*7) % 45
			recs[i].Arrival = netsim.Time(recs[i].Epoch) * 100 * netsim.Millisecond
		}
		out = append(out, scenario{name: name, records: recs, drop: drop})
	}
	spread := func(bad, ok []topology.Path, qdepth uint32) []dataplane.RTRecord {
		var recs []dataplane.RTRecord
		for ep := uint32(1); ep <= 3; ep++ {
			for _, p := range bad {
				recs = append(recs, f.record(tb, p, ep, badLatency, 20, qdepth))
			}
			for _, p := range ok {
				recs = append(recs, f.record(tb, p, ep, okLatency, 20, 1))
			}
		}
		return recs
	}

	hit, miss := f.pathsThrough([]topology.NodeID{f.ft.CoreIDs[0]})
	add("delay", false, spread(hit[:6], miss[:8], 1))

	hit, miss = f.pathsThrough([]topology.NodeID{f.ft.AggIDs[0], f.ft.CoreIDs[0]})
	add("process-rate", false, spread(hit[:6], miss[:10], 30))

	// ECMP: e0's second aggregation carries 9x the traffic and congests.
	var heavy, light []topology.Path
	for _, dst := range []topology.NodeID{e[2], e[4]} {
		paths := f.ft.AllShortestPaths(e[0], dst)
		for _, p := range paths {
			if p[1] == paths[0][1] {
				light = append(light, p)
			} else {
				heavy = append(heavy, p)
			}
		}
	}
	add("ecmp", false, spread(heavy, append(light, f.ft.AllShortestPaths(e[4], e[6])...), 25))

	// Micro-burst: a quiet flow spikes 10x with queueing.
	burst := f.ft.AllShortestPaths(e[0], e[2])[0]
	var recs []dataplane.RTRecord
	for ep := uint32(1); ep <= 3; ep++ {
		recs = append(recs, f.record(tb, burst, ep, okLatency, 20, 1))
	}
	for ep := uint32(4); ep <= 8; ep++ {
		recs = append(recs, f.record(tb, burst, ep, badLatency, 200, 30))
	}
	for _, p := range f.ft.AllShortestPaths(e[0], e[1]) {
		for ep := uint32(1); ep <= 4; ep++ {
			recs = append(recs, f.record(tb, p, ep, okLatency, 20, 1))
		}
	}
	add("micro-burst", false, recs)

	add("drop", true, f.dropRecords(tb))
	return out
}

// dropRecords is a silent-loss diagnosis: flows over the link agg0 -> core0
// lose 30 of 40 packets, unrelated flows are clean, nobody is late.
func (f *fixture) dropRecords(tb testing.TB) []dataplane.RTRecord {
	tb.Helper()
	hit, _ := f.pathsThrough([]topology.NodeID{f.ft.AggIDs[0], f.ft.CoreIDs[0]})
	var recs []dataplane.RTRecord
	flows := make(map[dataplane.FlowID]bool)
	for _, p := range hit {
		flow := dataplane.FlowID{Src: p[0], Sink: p[len(p)-1]}
		if flows[flow] || len(flows) >= 6 {
			continue
		}
		flows[flow] = true
		r := f.record(tb, p, 3, okLatency, 40, 1)
		r.SinkCount = 10
		recs = append(recs, r)
	}
	for _, p := range f.ft.AllShortestPaths(f.ft.EdgeIDs[4], f.ft.EdgeIDs[6]) {
		recs = append(recs, f.record(tb, p, 3, okLatency, 20, 1))
	}
	return recs
}

// expandedOracle is minePatterns the way Alg. 2 is written: every record
// becomes clamp(PathCount, 1, cap) packets, the naive enumerator mines the
// failing packets' paths, and each pattern's spectrum is counted packet by
// packet.
func expandedOracle(a *Analyzer, records []dataplane.RTRecord, failing []bool) ([]scoredPattern, float64) {
	type packet struct {
		path    topology.Path
		failing bool
	}
	var packets []packet
	var db fsm.Dataset
	for i, r := range records {
		path, ok := a.Paths.Lookup(r.Flow.Sink, r.PathID)
		if !ok {
			continue
		}
		n := int(r.PathCount)
		if n < 1 {
			n = 1
		}
		if n > maxEstimatePerRecord {
			n = maxEstimatePerRecord
		}
		seq := make(fsm.Sequence, len(path))
		for j, sw := range path {
			seq[j] = fsm.Item(sw)
		}
		for k := 0; k < n; k++ {
			packets = append(packets, packet{path, failing[i]})
			if failing[i] {
				db = append(db, seq)
			}
		}
	}
	var out []scoredPattern
	for _, pat := range (fsm.NaiveMiner{}).Mine(db, fsm.Params{MinRelSupport: a.Cfg.MinRelSupport, MaxLen: a.Cfg.MaxPatternLen}) {
		sub := make([]topology.NodeID, len(pat.Items))
		for i, it := range pat.Items {
			sub[i] = topology.NodeID(it)
		}
		var spec sbfl.Spectrum
		for _, p := range packets {
			switch covers := p.path.Contains(sub); {
			case p.failing && covers:
				spec.Npf++
			case p.failing:
				spec.Nnf++
			case covers:
				spec.Nps++
			default:
				spec.Nns++
			}
		}
		out = append(out, scoredPattern{sub: sub, score: a.Cfg.Formula(spec), npf: spec.Npf})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		if len(out[i].sub) != len(out[j].sub) {
			return len(out[i].sub) > len(out[j].sub)
		}
		return lessPath(out[i].sub, out[j].sub)
	})
	return out, float64(len(db))
}

// TestMinePatternsMatchesExpandedOracle pins the weighted pipeline to the
// expanded one it replaced: same patterns, same scores bit for bit, same
// abnormal packet counts — for the latency view of all five fault kinds
// and for the drop view of a drop diagnosis and a drop window.
func TestMinePatternsMatchesExpandedOracle(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	check := func(name string, ix *index, of split, failing []bool) {
		t.Helper()
		got, gotPkts := a.minePatterns(ix, of)
		want, wantPkts := expandedOracle(a, ix.records, failing)
		if len(want) == 0 {
			t.Fatalf("%s: oracle mined no pattern; the fixture has no abnormal set", name)
		}
		if !reflect.DeepEqual(got, want) || gotPkts != wantPkts {
			t.Errorf("%s: weighted mining diverges from the expanded oracle\n got %v (%v abnormal packets)\nwant %v (%v)",
				name, got, gotPkts, want, wantPkts)
		}
	}
	// The drop view's split, and the per-record failing set it stands for.
	dropView := func(ix *index) (split, []bool) {
		affected := a.dropAffectedFlows(ix)
		failing := make([]bool, len(ix.records))
		for i, f := range ix.flowOf {
			failing[i] = affected[f]
		}
		return byFlow(affected), failing
	}
	for _, sc := range scenarios(t, f) {
		ix := a.index(sc.records, 500*netsim.Millisecond)
		if sc.drop {
			of, failing := dropView(ix)
			check(sc.name+"/drop-view", ix, of, failing)
		} else {
			check(sc.name+"/latency-view", ix, byThreshold, ix.over)
		}
	}
	// A window that is both late and lossy: both views' abnormal sets.
	window := lossWindow(t, f, 9)
	ix := a.index(window, 400*netsim.Millisecond)
	of, failing := dropView(ix)
	check("window/drop-view", ix, of, failing)
	check("window/latency-view", ix, byThreshold, ix.over)
}

// lossWindow is a 4-epoch k=4 window with both kinds of abnormal set:
// flows over agg0 -> core0 run late and lose packets, everything else is
// healthy. Every record carries pathCount.
func lossWindow(tb testing.TB, f *fixture, pathCount uint32) []dataplane.RTRecord {
	tb.Helper()
	hit, miss := f.pathsThrough([]topology.NodeID{f.ft.AggIDs[0], f.ft.CoreIDs[0]})
	var recs []dataplane.RTRecord
	for ep := uint32(0); ep < 4; ep++ {
		for _, p := range hit[:8] {
			r := f.record(tb, p, ep, badLatency, 40, 30)
			r.SinkCount = 10
			recs = append(recs, r)
		}
		for _, p := range miss[:24] {
			recs = append(recs, f.record(tb, p, ep, okLatency, 20, 1))
		}
	}
	for i := range recs {
		recs[i].PathCount = pathCount
	}
	return recs
}

// steadyStateAllocs is what a warm Analyzer allocates re-analysing
// lossWindow: what it returns — each culprit's location, each view's
// merged list, the two views' merge — and each view's mined patterns,
// which fsm.Miner returns too. The index, the rows, the mining database,
// the signatures' tables and the walk's scratch are the working set's.
const steadyStateAllocs = 30

// TestAnalyzeWindowSteadyStateAllocs: a warm Analyzer re-analysing the same
// k=4 window allocates only what it returns (steadyStateAllocs). A table
// rebuilt per window fails it: rebuilding the drop sums, the flow summaries
// and the epoch rows, with PrefixSpan counting in maps per projection, cost
// 370.
func TestAnalyzeWindowSteadyStateAllocs(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	window := lossWindow(t, f, 1)
	var culprits int
	allocs := testing.AllocsPerRun(20, func() {
		culprits = len(a.AnalyzeWindow(window, 400*netsim.Millisecond, 1))
	})
	if culprits == 0 {
		t.Fatal("no culprits: the window never reached the signatures")
	}
	if allocs > steadyStateAllocs {
		t.Errorf("a warm analysis of %d records allocates %.0f times, want at most %d", len(window), allocs, steadyStateAllocs)
	}
	t.Logf("%.0f allocations, %d culprits", allocs, culprits)
}

// TestAnalyzeCostIndependentOfPathCount: a record is one entry whatever
// its PathCount, so analysing the same window with every PathCount at 1
// and at 30 allocates the same. (Per-packet expansion allocated one
// fsm.Sequence per abnormal estimated packet and regrew both packet
// slices: 7,013 against 25,212 allocations on this window.)
func TestAnalyzeCostIndependentOfPathCount(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	allocs := func(pathCount uint32) (float64, int) {
		window := lossWindow(t, f, pathCount)
		var culprits int
		n := testing.AllocsPerRun(20, func() {
			culprits = len(a.AnalyzeWindow(window, 400*netsim.Millisecond, 1))
		})
		return n, culprits
	}
	one, culpritsOne := allocs(1)
	thirty, culpritsThirty := allocs(30)
	if culpritsOne == 0 || culpritsOne != culpritsThirty {
		t.Fatalf("culprits: %d at PathCount 1, %d at 30; want the same non-empty list", culpritsOne, culpritsThirty)
	}
	// Not exact equality: a few appends run in map order, so slice growth
	// moves the count by two or three allocations from run to run (visible
	// under -race). Per-packet cost would be a multiple, not a percent.
	if math.Abs(one-thirty) > 0.01*one {
		t.Errorf("AnalyzeWindow allocates %.0f at PathCount 1 but %.0f at 30", one, thirty)
	}
}

// TestPartialConfigRanksAsDefault: rca.New fills in a nil Miner and Formula
// and a zero EpochDuration, so partial Config literals are meant to work —
// and every signature threshold is a constant, so a literal that names only
// the mining knobs runs the same analysis as DefaultConfig.
func TestPartialConfigRanksAsDefault(t *testing.T) {
	f := newFixture(t)
	def := analyzer(f)
	partial := New(Config{MinRelSupport: 0.3, MaxPatternLen: 2}, f.table, fixedThr(10*netsim.Millisecond))
	for _, sc := range scenarios(t, f) {
		want := def.AnalyzeWindow(sc.records, 500*netsim.Millisecond, 1)
		if len(want) == 0 {
			t.Fatalf("%s: DefaultConfig ranks nothing; the fixture has no abnormal set", sc.name)
		}
		if got := partial.AnalyzeWindow(sc.records, 500*netsim.Millisecond, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a partial Config ranks differently from DefaultConfig\n got %v\nwant %v", sc.name, got, want)
		}
	}
}

// BenchmarkAnalyzeWindow is the bench-gate entry for window analysis. Its
// PathCount sizes analyse the same k=4 window with every PathCount at 1 and
// at 30: a gap between them is a regression to per-packet cost. QuietK8 is
// the window a streaming unit sees most often, on a path table that does
// not sit in cache: ~400 healthy records of ~100 flows over 4 epochs at
// k=8, thresholds from a map. Anything it pays per record for — a decode,
// a threshold, a per-flow map — is paid for a window that reports nothing.
func BenchmarkAnalyzeWindow(b *testing.B) {
	f := newFixture(b)
	a := analyzer(f)
	for _, bc := range []struct {
		name      string
		pathCount uint32
	}{{"PathCount1", 1}, {"PathCount30", 30}} {
		window := lossWindow(b, f, bc.pathCount)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(a.AnalyzeWindow(window, 400*netsim.Millisecond, 1)) == 0 {
					b.Fatal("no culprits")
				}
			}
		})
	}

	b.Run("QuietK8", func(b *testing.B) {
		a, window := quietK8(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := a.AnalyzeWindow(window, 400*netsim.Millisecond, 1); len(got) != 0 {
				b.Fatalf("a healthy window produced culprits: %v", got)
			}
		}
	})
}

// quietK8 is BenchmarkAnalyzeWindow's QuietK8 window and its analyzer.
func quietK8(tb testing.TB) (*Analyzer, []dataplane.RTRecord) {
	tb.Helper()
	f := newFixtureK(tb, 8)
	thresholds := make(map[dataplane.FlowID]netsim.Time)
	var window []dataplane.RTRecord
	e := f.ft.EdgeIDs
	for n := 0; n < 100; n++ {
		src, dst := e[n%len(e)], e[(n*7+3)%len(e)]
		if src == dst {
			dst = e[(n*7+4)%len(e)]
		}
		paths := f.ft.AllShortestPaths(src, dst)
		thresholds[dataplane.FlowID{Src: src, Sink: dst}] = 10 * netsim.Millisecond
		for ep := uint32(0); ep < 4; ep++ {
			window = append(window, f.record(tb, paths[(n+int(ep))%len(paths)], ep, okLatency, 20, 1))
		}
	}
	return New(DefaultConfig(), f.table, ThresholdFunc(func(flow dataplane.FlowID) netsim.Time { return thresholds[flow] })), window
}

// countingMiner counts the Mine calls and the sequences they are given.
type countingMiner struct {
	fsm.Miner
	calls, seqs int
}

func (m *countingMiner) Mine(db fsm.Dataset, p fsm.Params) []fsm.Pattern {
	m.calls++
	m.seqs += len(db)
	return m.Miner.Mine(db, p)
}

// TestWindowWorkCounts pins the exact work of one AnalyzeWindow on
// BenchmarkAnalyzeWindow's windows: the (flow, path) rows estimate decodes,
// one Paths.Lookup call each, and the Mine calls with the sequences they
// mine. The allocation gate does not see these; a change that moves one
// changes the work per window and must say so.
func TestWindowWorkCounts(t *testing.T) {
	f := newFixture(t)
	quiet, quietWindow := quietK8(t)
	for _, tc := range []struct {
		name                 string
		a                    *Analyzer
		window               []dataplane.RTRecord
		lookups, mines, seqs int
	}{
		// 32 (flow, path) rows over 128 records; the latency view mines
		// the 8 slow rows and the drop view the 28 rows of its lossy flows.
		{"PathCount1", analyzer(f), lossWindow(t, f, 1), 32, 2, 36},
		// A healthy window decodes and mines nothing.
		{"QuietK8", quiet, quietWindow, 0, 0, 0},
	} {
		m := &countingMiner{Miner: tc.a.Cfg.Miner}
		tc.a.Cfg.Miner = m
		tc.a.AnalyzeWindow(tc.window, 400*netsim.Millisecond, 1)
		if lookups := len(tc.a.work.paths); lookups != tc.lookups || m.calls != tc.mines || m.seqs != tc.seqs {
			t.Errorf("%s: %d Paths.Lookup calls, %d Mine calls over %d sequences; want %d, %d, %d",
				tc.name, lookups, m.calls, m.seqs, tc.lookups, tc.mines, tc.seqs)
		}
	}
}
