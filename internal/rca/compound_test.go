package rca

import (
	"testing"

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
	ix := &index{stats: stats}
	for f := range stats {
		ix.flows = append(ix.flows, int32(f))
	}
	return ix
}

// classify is classifyDropCause over the index's flows that traverse sub.
func classify(a *Analyzer, ix *index, sub []topology.NodeID, affected []bool) Cause {
	through, _ := ix.traversing(sub)
	return a.classifyDropCause(ix, sub, through, affected)
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

func TestCompoundCausesOffNeverEmitsGrayLabels(t *testing.T) {
	for _, c := range []Cause{CauseLinkDegrade, CauseLinkFlap, CauseSwitchReboot} {
		if c.String() == "" {
			t.Fatal("gray causes must have names")
		}
	}
	cfg := DefaultConfig()
	if cfg.CompoundCauses {
		t.Fatal("CompoundCauses must default to off — the paper's behavior is the baseline")
	}
}
