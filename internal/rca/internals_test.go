package rca

import (
	"slices"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
)

func TestDropAffectedFlowsCancelsDisplacement(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	flow := dataplane.FlowID{Src: f.ft.EdgeIDs[0], Sink: f.ft.EdgeIDs[2]}
	p := f.ft.AllShortestPaths(flow.Src, flow.Sink)[0]

	// A latency-shift onset: epoch 10 shows a deficit of 18, epoch 11 the
	// matching surplus. Cumulatively balanced => not a drop.
	mk := func(epoch, src, sink uint32) dataplane.RTRecord {
		r := f.record(t, p, epoch, okLatency, src, 1)
		r.SinkCount = sink
		r.Arrival = netsim.Time(epoch) * 100 * netsim.Millisecond
		return r
	}
	displaced := []dataplane.RTRecord{
		mk(9, 40, 40),
		mk(10, 40, 22), // deficit 18
		mk(11, 40, 58), // surplus 18
	}
	if got := a.dropAffectedFlows(a.index(displaced, 1200*netsim.Millisecond)); slices.Contains(got, true) {
		t.Errorf("displacement flagged as drop: %v", got)
	}

	// Real loss: sustained deficit accumulates.
	lossy := []dataplane.RTRecord{
		mk(9, 40, 18),
		mk(10, 40, 20),
		mk(11, 40, 22),
	}
	if got := a.dropAffectedFlows(a.index(lossy, 1200*netsim.Millisecond)); len(got) != 1 || !got[0] {
		t.Errorf("sustained loss not flagged: %v", got)
	}
}

func TestDropAffectedFlowsRecentWindow(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	flow := dataplane.FlowID{Src: f.ft.EdgeIDs[0], Sink: f.ft.EdgeIDs[2]}
	p := f.ft.AllShortestPaths(flow.Src, flow.Sink)[0]
	old := f.record(t, p, 2, okLatency, 40, 1)
	old.SinkCount = 0 // massive loss, but long ago
	old.Arrival = 200 * netsim.Millisecond
	if got := a.dropAffectedFlows(a.index([]dataplane.RTRecord{old}, 5*netsim.Second)); slices.Contains(got, true) {
		t.Errorf("stale evidence flagged: %v", got)
	}
}

func TestEpochGapIsDirectDropEvidence(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	flow := dataplane.FlowID{Src: f.ft.EdgeIDs[0], Sink: f.ft.EdgeIDs[2]}
	p := f.ft.AllShortestPaths(flow.Src, flow.Sink)[0]
	r := f.record(t, p, 30, okLatency, 40, 1)
	r.EpochGap = 5
	r.Arrival = 3 * netsim.Second
	if got := a.dropAffectedFlows(a.index([]dataplane.RTRecord{r}, 3*netsim.Second)); len(got) != 1 || !got[0] {
		t.Error("epoch gap not treated as drop evidence")
	}
}

func TestIsBurstyAbsoluteRate(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	// Flow appearing mid-window at 1200 pps (120/epoch) with no history.
	fs := &flowStats{epochs: []epochStat{{epoch: 20, src: 120}, {epoch: 21, src: 118}}}
	win := &sinkEpochRange{min: 0, max: 25}
	if !a.isBursty(fs, win, 30) {
		t.Error("new 1200pps flow not bursty")
	}
	// Same rate but present from the window start: steady heavy flow.
	fs2 := &flowStats{}
	for e := uint32(0); e <= 25; e++ {
		fs2.epochs = append(fs2.epochs, epochStat{epoch: e, src: 120})
	}
	if a.isBursty(fs2, win, 30) {
		t.Error("steady heavy flow misclassified as burst")
	}
	// Existing flow whose rate jumps 4x: relative test.
	fs3 := &flowStats{}
	for e := uint32(0); e <= 20; e++ {
		fs3.epochs = append(fs3.epochs, epochStat{epoch: e, src: 25})
	}
	fs3.epochs = append(fs3.epochs, epochStat{epoch: 21, src: 110})
	if !a.isBursty(fs3, win, 30) {
		t.Error("4x rate jump not bursty")
	}
}

func TestEcmpDivergenceRequiresHeavyFeedsNext(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	e0 := f.ft.EdgeIDs[0]
	dst := f.ft.EdgeIDs[2]
	paths := f.ft.AllShortestPaths(e0, dst)
	// Build stats with a heavy branch via paths[2] (second aggregation).
	fls := &flowStats{}
	for i, p := range paths {
		w := 5.0
		if i >= 2 { // second agg branch heavy
			w = 45.0
		}
		fls.paths = append(fls.paths, pathStat{path: p, pkts: w})
	}
	heavyAgg := paths[2][1]
	if up, _, ok := a.ecmpDivergence(fls, heavyAgg); !ok || up != e0 {
		t.Errorf("divergence = %v,%v; want %d", up, ok, e0)
	}
	// Asking about the light branch must not match.
	lightAgg := paths[0][1]
	if _, _, ok := a.ecmpDivergence(fls, lightAgg); ok {
		t.Error("light branch wrongly matched")
	}
}
