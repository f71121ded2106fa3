package rca

import (
	"testing"

	"mars/internal/controlplane"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// fixture builds a fat-tree (K=4 unless a test asks otherwise) with its
// PathID table and a fixed per-flow threshold of 10 ms.
type fixture struct {
	ft    *topology.FatTree
	table *pathid.Table
}

type fixedThr netsim.Time

func (f fixedThr) ThresholdOf(dataplane.FlowID) netsim.Time { return netsim.Time(f) }

func newFixture(t testing.TB) *fixture { return newFixtureK(t, 4) }

// newFixtureK widens the PathID to 16 bits above K=4, whose path sets the
// 8-bit default cannot tell apart.
func newFixtureK(t testing.TB, k int) *fixture {
	t.Helper()
	ft, err := topology.NewFatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pathid.DefaultConfig()
	if k > 4 {
		cfg.Width = 16
	}
	table, err := pathid.BuildTable(cfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ft: ft, table: table}
}

// record builds an RTRecord for a concrete path with the given telemetry.
func (f *fixture) record(t testing.TB, path topology.Path, epoch uint32, latency netsim.Time, count uint32, qdepth uint32) dataplane.RTRecord {
	t.Helper()
	id, ok := f.table.FinalID(path)
	if !ok {
		t.Fatalf("no PathID for %v", path)
	}
	return dataplane.RTRecord{
		Flow:            dataplane.FlowID{Src: path[0], Sink: path[len(path)-1]},
		PathID:          id,
		Epoch:           epoch,
		Latency:         latency,
		SourceCount:     count,
		SinkCount:       count,
		PathCount:       count,
		TotalQueueDepth: qdepth,
		Arrival:         netsim.Time(epoch) * 100 * netsim.Millisecond,
	}
}

func analyzer(f *fixture) *Analyzer {
	return New(DefaultConfig(), f.table, fixedThr(10*netsim.Millisecond))
}

const (
	okLatency  = 2 * netsim.Millisecond
	badLatency = 50 * netsim.Millisecond
)

func TestDelayLocalization(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	// The culprit: core switch on cross-pod paths. Flows crossing it see
	// high latency with NO queue buildup; other flows are fine.
	e := f.ft.EdgeIDs
	culprit := f.ft.CoreIDs[0]

	var recs []dataplane.RTRecord
	var crossPaths []topology.Path
	// All cross-pod paths through the culprit core.
	for _, src := range e {
		for _, dst := range e {
			if src == dst {
				continue
			}
			for _, p := range f.ft.AllShortestPaths(src, dst) {
				if p.Contains([]topology.NodeID{culprit}) {
					crossPaths = append(crossPaths, p)
				}
			}
		}
	}
	if len(crossPaths) < 4 {
		t.Fatalf("only %d paths through core", len(crossPaths))
	}
	for i, p := range crossPaths[:6] {
		for ep := uint32(1); ep <= 3; ep++ {
			recs = append(recs, f.record(t, p, ep, badLatency, 20, 1))
		}
		_ = i
	}
	// Healthy flows elsewhere (avoiding the culprit).
	for _, p := range f.ft.AllShortestPaths(e[0], e[1]) {
		for ep := uint32(1); ep <= 3; ep++ {
			recs = append(recs, f.record(t, p, ep, okLatency, 20, 1))
		}
	}
	got := a.Analyze(controlplane.Diagnosis{
		Trigger: dataplane.Notification{Kind: dataplane.NotifyHighLatency},
		Records: recs,
	})
	if len(got) == 0 {
		t.Fatal("no culprits")
	}
	top := got[0]
	if top.Cause != CauseDelay {
		t.Errorf("top cause = %v, want delay\nlist: %v", top.Cause, got[:minInt(3, len(got))])
	}
	if !top.ContainsSwitch(culprit) {
		t.Errorf("top culprit %v does not contain s%d", top, culprit)
	}
}

func TestProcessRateLocalization(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	// Slow port on the link agg -> core: flows over that link see high
	// latency WITH queue buildup.
	aggSw := f.ft.AggIDs[0]
	coreSw := f.ft.CoreIDs[0]
	link := []topology.NodeID{aggSw, coreSw}

	var recs []dataplane.RTRecord
	var hit, miss []topology.Path
	for _, src := range f.ft.EdgeIDs {
		for _, dst := range f.ft.EdgeIDs {
			if src == dst {
				continue
			}
			for _, p := range f.ft.AllShortestPaths(src, dst) {
				if p.Contains(link) {
					hit = append(hit, p)
				} else {
					miss = append(miss, p)
				}
			}
		}
	}
	for _, p := range hit[:minInt(6, len(hit))] {
		for ep := uint32(1); ep <= 3; ep++ {
			recs = append(recs, f.record(t, p, ep, badLatency, 20, 30))
		}
	}
	for _, p := range miss[:10] {
		for ep := uint32(1); ep <= 3; ep++ {
			recs = append(recs, f.record(t, p, ep, okLatency, 20, 1))
		}
	}
	got := a.Analyze(controlplane.Diagnosis{
		Trigger: dataplane.Notification{Kind: dataplane.NotifyHighLatency},
		Records: recs,
	})
	if len(got) == 0 {
		t.Fatal("no culprits")
	}
	rank := -1
	for i, c := range got {
		if c.Cause == CauseProcessRate && c.ContainsSwitch(aggSw) {
			rank = i + 1
			break
		}
	}
	if rank < 1 || rank > 2 {
		t.Errorf("process-rate at s%d ranked %d\nlist: %v", aggSw, rank, got[:minInt(4, len(got))])
	}
}

// ecmpRecords is a skewed ECMP split: edge e0 sends 9x the traffic through
// its second aggregation, whose queue congests, for two flows; background
// flows elsewhere are healthy.
func (f *fixture) ecmpRecords(t testing.TB) []dataplane.RTRecord {
	t.Helper()
	e0 := f.ft.EdgeIDs[0]
	dst := f.ft.EdgeIDs[2] // cross-pod
	paths := f.ft.AllShortestPaths(e0, dst)
	if len(paths) != 4 {
		t.Fatalf("paths = %d", len(paths))
	}
	agg0 := paths[0][1]
	var heavy, light []topology.Path
	for _, p := range paths {
		if p[1] == agg0 {
			light = append(light, p)
		} else {
			heavy = append(heavy, p)
		}
	}
	var recs []dataplane.RTRecord
	for ep := uint32(1); ep <= 4; ep++ {
		for _, p := range heavy {
			recs = append(recs, f.record(t, p, ep, badLatency, 45, 25))
		}
		for _, p := range light {
			recs = append(recs, f.record(t, p, ep, okLatency, 5, 1))
		}
	}
	// A second flow through the skewed switch votes for the same upstream
	// divergence (a real skew affects every flow crossing it).
	dst2 := f.ft.EdgeIDs[4]
	for _, p := range f.ft.AllShortestPaths(e0, dst2) {
		for ep := uint32(1); ep <= 4; ep++ {
			if p[1] == agg0 {
				recs = append(recs, f.record(t, p, ep, okLatency, 5, 1))
			} else {
				recs = append(recs, f.record(t, p, ep, badLatency, 45, 25))
			}
		}
	}
	// Background healthy flows elsewhere.
	for _, p := range f.ft.AllShortestPaths(f.ft.EdgeIDs[4], f.ft.EdgeIDs[6]) {
		for ep := uint32(1); ep <= 4; ep++ {
			recs = append(recs, f.record(t, p, ep, okLatency, 20, 1))
		}
	}
	return recs
}

func TestECMPLocalizationBlamesUpstream(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	// The culprit must be e0, not the congested aggregation.
	e0 := f.ft.EdgeIDs[0]
	recs := f.ecmpRecords(t)
	got := a.Analyze(controlplane.Diagnosis{
		Trigger: dataplane.Notification{Kind: dataplane.NotifyHighLatency},
		Records: recs,
	})
	if len(got) == 0 {
		t.Fatal("no culprits")
	}
	rank := -1
	for i, c := range got {
		if c.Cause == CauseECMPImbalance && c.ContainsSwitch(e0) {
			rank = i + 1
			break
		}
	}
	if rank < 1 || rank > 3 {
		t.Errorf("ECMP at e0 (s%d) ranked %d\nlist: %v", e0, rank, got[:minInt(5, len(got))])
	}
}

func TestMicroBurstLocalization(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	e0, e2 := f.ft.EdgeIDs[0], f.ft.EdgeIDs[2]
	burstPath := f.ft.AllShortestPaths(e0, e2)[0]
	burstFlow := dataplane.FlowID{Src: e0, Sink: e2}

	var recs []dataplane.RTRecord
	// Quiet history then a 10x spike with queueing and latency.
	for ep := uint32(1); ep <= 3; ep++ {
		recs = append(recs, f.record(t, burstPath, ep, okLatency, 20, 1))
	}
	for ep := uint32(4); ep <= 8; ep++ {
		recs = append(recs, f.record(t, burstPath, ep, badLatency, 200, 30))
	}
	// Innocent flows sharing part of the path.
	for _, p := range f.ft.AllShortestPaths(e0, f.ft.EdgeIDs[1]) {
		for ep := uint32(1); ep <= 4; ep++ {
			recs = append(recs, f.record(t, p, ep, okLatency, 20, 1))
		}
	}
	got := a.Analyze(controlplane.Diagnosis{
		Trigger: dataplane.Notification{Kind: dataplane.NotifyHighLatency, Flow: burstFlow},
		Records: recs,
	})
	if len(got) == 0 {
		t.Fatal("no culprits")
	}
	top := got[0]
	if top.Cause != CauseMicroBurst || top.Flow != burstFlow {
		t.Errorf("top = %v, want micro-burst %v", top, burstFlow)
	}
	if top.Level != LevelFlow {
		t.Errorf("level = %v, want flow", top.Level)
	}
}

func TestDropLocalization(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	// Drop on link agg0 -> core0: flows over it show source/sink count
	// mismatch; unrelated flows are clean.
	aggSw := f.ft.AggIDs[0]
	coreSw := f.ft.CoreIDs[0]
	link := []topology.NodeID{aggSw, coreSw}

	var recs []dataplane.RTRecord
	added := 0
	for _, src := range f.ft.EdgeIDs {
		for _, dst := range f.ft.EdgeIDs {
			if src == dst || added >= 6 {
				continue
			}
			for _, p := range f.ft.AllShortestPaths(src, dst) {
				if p.Contains(link) {
					r := f.record(t, p, 3, okLatency, 40, 1)
					r.SinkCount = 10 // 30 packets lost
					recs = append(recs, r)
					added++
					break
				}
			}
		}
	}
	if added < 3 {
		t.Fatalf("only %d affected flows", added)
	}
	for _, p := range f.ft.AllShortestPaths(f.ft.EdgeIDs[4], f.ft.EdgeIDs[6]) {
		recs = append(recs, f.record(t, p, 3, okLatency, 20, 1))
	}
	got := a.Analyze(controlplane.Diagnosis{
		Trigger: dataplane.Notification{Kind: dataplane.NotifyDrop},
		Records: recs,
	})
	if len(got) == 0 {
		t.Fatal("no culprits")
	}
	rank := -1
	for i, c := range got {
		if c.Cause == CauseDrop && (c.ContainsSwitch(aggSw) || c.ContainsSwitch(coreSw)) {
			rank = i + 1
			break
		}
	}
	if rank != 1 {
		t.Errorf("drop at link ranked %d\nlist: %v", rank, got[:minInt(4, len(got))])
	}
	for _, c := range got {
		if c.Cause != CauseDrop {
			t.Errorf("drop diagnosis produced non-drop cause %v", c)
		}
	}
}

func TestEmptyDiagnosis(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	got := a.Analyze(controlplane.Diagnosis{
		Trigger: dataplane.Notification{Kind: dataplane.NotifyHighLatency},
	})
	if len(got) != 0 {
		t.Errorf("empty diagnosis produced %d culprits", len(got))
	}
}

func TestAllNormalDiagnosis(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	var recs []dataplane.RTRecord
	for _, p := range f.ft.AllShortestPaths(f.ft.EdgeIDs[0], f.ft.EdgeIDs[1]) {
		recs = append(recs, f.record(t, p, 1, okLatency, 20, 1))
	}
	got := a.Analyze(controlplane.Diagnosis{
		Trigger: dataplane.Notification{Kind: dataplane.NotifyHighLatency},
		Records: recs,
	})
	if len(got) != 0 {
		t.Errorf("all-normal diagnosis produced %d culprits: %v", len(got), got)
	}
}

func TestRankedScoresDescending(t *testing.T) {
	f := newFixture(t)
	a := analyzer(f)
	var recs []dataplane.RTRecord
	for i, src := range f.ft.EdgeIDs {
		dst := f.ft.EdgeIDs[(i+3)%8]
		for _, p := range f.ft.AllShortestPaths(src, dst)[:1] {
			lat := okLatency
			if i%2 == 0 {
				lat = badLatency
			}
			recs = append(recs, f.record(t, p, 1, lat, 20, 12))
		}
	}
	got := a.Analyze(controlplane.Diagnosis{
		Trigger: dataplane.Notification{Kind: dataplane.NotifyHighLatency},
		Records: recs,
	})
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("scores not descending at %d: %v", i, got)
		}
	}
}

func TestMergeCulpritsRules(t *testing.T) {
	flowA := dataplane.FlowID{Src: 1, Sink: 2}
	in := []Culprit{
		{Cause: CauseMicroBurst, Level: LevelFlow, Flow: flowA, Score: 3, Location: []topology.NodeID{5}},
		{Cause: CauseMicroBurst, Level: LevelFlow, Flow: flowA, Score: 7, Location: []topology.NodeID{6}},
		{Cause: CauseDelay, Level: LevelSwitch, Location: []topology.NodeID{9}, Score: 2},
		{Cause: CauseDelay, Level: LevelSwitch, Location: []topology.NodeID{9}, Score: 2.5},
	}
	out := mergeCulprits(in)
	if len(out) != 2 {
		t.Fatalf("merged = %d entries: %v", len(out), out)
	}
	for _, c := range out {
		switch c.Cause {
		case CauseMicroBurst:
			if c.Score != 7 || c.Location[0] != 6 {
				t.Errorf("flow merge = %v, want max score 7 at s6", c)
			}
		case CauseDelay:
			if c.Score != 4.5 {
				t.Errorf("switch merge = %v, want sum 4.5", c)
			}
		}
	}
}

func TestMergePortLevelCollapse(t *testing.T) {
	in := []Culprit{
		{Cause: CauseProcessRate, Level: LevelPort, Location: []topology.NodeID{4, 7}, Score: 2},
		{Cause: CauseProcessRate, Level: LevelPort, Location: []topology.NodeID{4, 8}, Score: 3},
		{Cause: CauseDrop, Level: LevelPort, Location: []topology.NodeID{4, 7}, Score: 1},
	}
	out := mergeCulprits(in)
	var collapsed *Culprit
	for i := range out {
		if out[i].Cause == CauseProcessRate {
			if out[i].Level != LevelSwitch {
				t.Fatalf("process-rate entries not collapsed: %v", out)
			}
			collapsed = &out[i]
		}
	}
	if collapsed == nil || collapsed.Score != 5 || collapsed.Location[0] != 4 {
		t.Errorf("collapsed = %v, want switch-level s4 score 5", collapsed)
	}
	// The single drop port entry must survive untouched.
	found := false
	for _, c := range out {
		if c.Cause == CauseDrop && c.Level == LevelPort {
			found = true
		}
	}
	if !found {
		t.Error("single-port drop entry lost")
	}
}

func TestThresholdFunc(t *testing.T) {
	var thr Thresholds = ThresholdFunc(func(dataplane.FlowID) netsim.Time { return 42 })
	if thr.ThresholdOf(dataplane.FlowID{}) != 42 {
		t.Error("ThresholdFunc broken")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
