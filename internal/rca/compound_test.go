package rca

import (
	"slices"
	"testing"

	"mars/internal/controlplane"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

func compoundAnalyzer() *Analyzer {
	cfg := DefaultConfig()
	cfg.CompoundCauses = true
	return New(cfg, nil, nil)
}

// synthetic flowStats with per-epoch (src, sink) pairs.
func statsWithEpochs(pairs [][2]uint32) *flowStats {
	fs := &flowStats{}
	for i, p := range pairs {
		fs.epochs = append(fs.epochs, epochStat{epoch: uint32(i), src: p[0], sink: p[1]})
	}
	return fs
}

// statsIndex is an index holding only the given per-flow summaries, flow
// numbers in argument order.
func statsIndex(stats ...flowStats) *index {
	ix := &index{stats: stats, flowIDs: make([]dataplane.FlowID, len(stats))}
	for f := range stats {
		ix.flows = append(ix.flows, int32(f))
	}
	return ix
}

// classify walks the drop chain over one pattern on sub, traversed by the
// index's flows, and returns the cause of the culprit that claims it.
func classify(a *Analyzer, ix *index, sub []topology.NodeID, affected []bool) Cause {
	ev := &patternEvidence{ix: ix, affected: affected, abnormalPkts: 1}
	ev.of(scoredPattern{sub: sub, score: 1, npf: 1})
	out := a.walk(dropChain, ev, nil)
	return out[len(out)-1].Cause
}

// healthyIntraPod is one epoch of every path of three flows that stay
// inside pods 1-3, on time and lossless.
func healthyIntraPod(tb testing.TB, f *fixture, ep uint32) []dataplane.RTRecord {
	tb.Helper()
	e := f.ft.EdgeIDs
	var recs []dataplane.RTRecord
	for _, pair := range [][2]topology.NodeID{{e[2], e[3]}, {e[4], e[5]}, {e[6], e[7]}} {
		for _, p := range f.ft.AllShortestPaths(pair[0], pair[1]) {
			recs = append(recs, f.record(tb, p, ep, okLatency, 20, 1))
		}
	}
	return recs
}

// flapWindow is an 8-epoch k=4 window in which six flows over agg0 -> core0
// lose 18 of 20 packets in every odd epoch and none in the even ones, and
// nobody is late: a flapping link.
func flapWindow(tb testing.TB, f *fixture) []dataplane.RTRecord {
	tb.Helper()
	hit, _ := f.pathsThrough([]topology.NodeID{f.ft.AggIDs[0], f.ft.CoreIDs[0]})
	var recs []dataplane.RTRecord
	for ep := uint32(0); ep < 8; ep++ {
		for _, p := range hit[:6] {
			r := f.record(tb, p, ep, okLatency, 20, 1)
			if ep%2 == 1 {
				r.SinkCount = 2
			}
			recs = append(recs, r)
		}
		recs = append(recs, healthyIntraPod(tb, f, ep)...)
	}
	return recs
}

// rebootWindow is a 4-epoch k=4 window in which core0 is down for epochs 1
// and 2: six flows that cross it between pod 0 and the three other pods
// lose 19 of 20 packets there and none before or after, and nobody is late.
func rebootWindow(tb testing.TB, f *fixture) []dataplane.RTRecord {
	tb.Helper()
	hit, _ := f.pathsThrough([]topology.NodeID{f.ft.CoreIDs[0]})
	var recs []dataplane.RTRecord
	for ep := uint32(0); ep < 4; ep++ {
		for _, p := range hit[:6] {
			r := f.record(tb, p, ep, okLatency, 20, 1)
			if ep == 1 || ep == 2 {
				r.SinkCount = 1
			}
			recs = append(recs, r)
		}
		recs = append(recs, healthyIntraPod(tb, f, ep)...)
	}
	return recs
}

func TestHardLossEpoch(t *testing.T) {
	fs := statsWithEpochs([][2]uint32{
		{20, 20}, // clean
		{20, 5},  // hard loss (sink < half)
		{20, 18}, // soft loss (gray)
		{2, 0},   // tiny sample: below the src floor
	})
	want := []bool{false, true, false, false}
	for e, w := range want {
		if got := fs.epochs[e].hardLoss(); got != w {
			t.Errorf("epoch %d: hardLoss = %v, want %v", e, got, w)
		}
	}
	fs.epochs[0].gap = true
	if !fs.epochs[0].hardLoss() {
		t.Error("a gap epoch is hard loss regardless of counts")
	}
}

func TestFlapTransitionsCountsAlternation(t *testing.T) {
	a := compoundAnalyzer()
	// down/up/down/up: 20->2 is hard loss, 20->20 clean.
	flap := statsWithEpochs([][2]uint32{
		{20, 2}, {20, 20}, {20, 2}, {20, 20}, {20, 2}, {20, 20},
	})
	if got := a.flapTransitions(flap); got < flapMinTransitions {
		t.Errorf("flap transitions = %d, want >= %d", got, flapMinTransitions)
	}
	// One contiguous outage: at most two transitions.
	outage := statsWithEpochs([][2]uint32{
		{20, 20}, {20, 20}, {20, 1}, {20, 2}, {20, 1}, {20, 20},
	})
	if got := a.flapTransitions(outage); got > 2 {
		t.Errorf("single outage transitions = %d, want <= 2", got)
	}
	// Steady gray loss (10%): marginal epochs are ambiguous, never flap.
	gray := statsWithEpochs([][2]uint32{
		{20, 18}, {20, 17}, {20, 18}, {20, 19}, {20, 17}, {20, 18},
	})
	if got := a.flapTransitions(gray); got != 0 {
		t.Errorf("steady gray loss transitions = %d, want 0", got)
	}
}

// classifyDropCause taxonomy: flap vs reboot vs degrade vs steady drop.
func TestClassifyDropCauseTaxonomy(t *testing.T) {
	a := compoundAnalyzer()
	link := []topology.NodeID{4, 9}
	path := topology.Path{2, 4, 9, 11}
	mk := func(pairs [][2]uint32, abnormal float64) ([]bool, *index) {
		fs := statsWithEpochs(pairs)
		fs.paths = []pathStat{{path: path, pkts: 10, abnormal: abnormal}}
		return []bool{true}, statsIndex(*fs)
	}

	flapping := [][2]uint32{{20, 2}, {20, 20}, {20, 2}, {20, 20}, {20, 2}, {20, 20}}
	affected, stats := mk(flapping, 0)
	if got := classify(a, stats, link, affected); got != CauseLinkFlap {
		t.Errorf("alternating hard loss = %v, want link-flap", got)
	}
	// The same alternation WITH latency evidence is congestion collapse,
	// not an administrative flap.
	affected, stats = mk(flapping, 10)
	if got := classify(a, stats, link, affected); got != CauseDrop {
		t.Errorf("alternating loss with latency = %v, want drop", got)
	}

	// Partial loss plus latency on a link pattern: degraded link.
	soft := [][2]uint32{{20, 18}, {20, 17}, {20, 18}, {20, 17}, {20, 18}, {20, 17}}
	affected, stats = mk(soft, 10)
	if got := classify(a, stats, link, affected); got != CauseLinkDegrade {
		t.Errorf("soft loss with latency = %v, want link-degrade", got)
	}
	// Silent partial loss with no latency stays steady drop.
	affected, stats = mk(soft, 0)
	if got := classify(a, stats, link, affected); got != CauseDrop {
		t.Errorf("silent soft loss = %v, want drop", got)
	}
}

func TestClassifyDropCauseReboot(t *testing.T) {
	a := compoundAnalyzer()
	sub := []topology.NodeID{4}
	outage := [][2]uint32{{20, 20}, {20, 1}, {20, 1}, {20, 20}}
	var affected []bool
	var stats []flowStats
	// Three flows through switch 4 from distinct neighbors: the loss fans.
	for _, p := range []topology.Path{{1, 4, 9}, {2, 4, 10}, {3, 4, 11}} {
		fs := statsWithEpochs(outage)
		fs.paths = []pathStat{{path: p, pkts: 10}}
		affected = append(affected, true)
		stats = append(stats, *fs)
	}
	ix := statsIndex(stats...)
	if got := classify(a, ix, sub, affected); got != CauseSwitchReboot {
		t.Errorf("fanned hard outage = %v, want switch-reboot", got)
	}
	// Without hard loss the fan is not a reboot.
	for _, fs := range stats {
		for e := range fs.epochs {
			fs.epochs[e].sink = fs.epochs[e].src
		}
	}
	if got := classify(a, ix, sub, affected); got == CauseSwitchReboot {
		t.Error("clean counts must not classify as reboot")
	}
}

// TestCompoundCausesOffNeverEmitsGrayLabels: under the default Config the
// walker skips every compound entry, so a flapping link, a rebooting switch
// and a late, lossy link yield no gray cause through either entry point —
// while compound mode names each, so the inputs do reach those entries.
func TestCompoundCausesOffNeverEmitsGrayLabels(t *testing.T) {
	if DefaultConfig().CompoundCauses {
		t.Fatal("CompoundCauses must default to off — the paper's behavior is the baseline")
	}
	f := newFixture(t)
	paper := analyzer(f)
	cfg := DefaultConfig()
	cfg.CompoundCauses = true
	compound := New(cfg, f.table, fixedThr(10*netsim.Millisecond))
	gray := []Cause{CauseLinkDegrade, CauseLinkFlap, CauseSwitchReboot}
	for _, in := range []struct {
		name    string
		records []dataplane.RTRecord
		now     netsim.Time
		want    Cause
	}{
		{"flap", flapWindow(t, f), 700 * netsim.Millisecond, CauseLinkFlap},
		{"reboot", rebootWindow(t, f), 400 * netsim.Millisecond, CauseSwitchReboot},
		{"loss-window", lossWindow(t, f, 9), 400 * netsim.Millisecond, CauseLinkDegrade},
	} {
		lists := [][]Culprit{paper.AnalyzeWindow(in.records, in.now, 1)}
		for _, kind := range []dataplane.NotificationKind{dataplane.NotifyHighLatency, dataplane.NotifyDrop} {
			d := controlplane.Diagnosis{Trigger: dataplane.Notification{Kind: kind}, Time: in.now, Records: in.records}
			lists = append(lists, paper.Analyze(d))
		}
		for _, list := range lists {
			if len(list) == 0 {
				t.Fatalf("%s: no culprits; an empty list would prove nothing", in.name)
			}
			for _, c := range list {
				if slices.Contains(gray, c.Cause) {
					t.Errorf("%s: default Config emitted %v", in.name, c)
				}
			}
		}
		if !slices.ContainsFunc(compound.AnalyzeWindow(in.records, in.now, 1), func(c Culprit) bool { return c.Cause == in.want }) {
			t.Errorf("%s: compound mode emits no %v culprit", in.name, in.want)
		}
	}
}
