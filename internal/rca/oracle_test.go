package rca

import (
	"sort"

	"mars/internal/controlplane"
	"mars/internal/dataplane"
	"mars/internal/det"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// The per-record reference. This file is the evidence pipeline as it stood
// before the index numbered its flows, kept as the oracle of
// TestIndexMatchesPerRecordOracle: a threshold and a Paths.Lookup per
// record, drop aggregation in a map of per-flow epoch maps, per-flow
// summaries and every derived set keyed by FlowID. It shares with the
// pipeline under test only what that change left alone — minePatterns over
// ready-made entries, the flowStats methods, the signatures' predicates,
// the merge and the ranking. Do not modernise it.

// mined presents the reference's estimate to minePatterns.
func (ix *refIndex) mined() *index {
	return &index{evidence: ix.evidence, entries: ix.entries}
}

type refIndex struct {
	evidence
	entries     []entry
	over        []bool
	overRecords int

	stats      map[dataplane.FlowID]*flowStats
	flows      []dataplane.FlowID
	sinkRanges map[topology.NodeID]*sinkEpochRange
	globalMed  float64
}

func (a *Analyzer) refIndex(ev evidence) *refIndex {
	ix := &refIndex{
		evidence: ev,
		entries:  make([]entry, len(ev.records)),
		over:     make([]bool, len(ev.records)),
	}
	for i, r := range ev.records {
		if a.Thr != nil && r.Latency > a.Thr.ThresholdOf(r.Flow) {
			ix.over[i] = true
			ix.overRecords++
		}
		path, ok := a.refDecode(r)
		if !ok {
			continue
		}
		n := int(r.PathCount)
		if n < 1 {
			n = 1
		}
		if limit := a.Cfg.MaxEstimatePerRecord; limit > 0 && n > limit {
			n = limit
		}
		ix.entries[i] = entry{path: path, weight: n}
	}
	return ix
}

func (a *Analyzer) refDecode(r dataplane.RTRecord) (topology.Path, bool) {
	return a.Paths.Lookup(r.Flow.Sink, r.PathID)
}

func (a *Analyzer) refRecent(ev evidence, r dataplane.RTRecord) bool {
	return a.Cfg.RecentWindow <= 0 || r.Arrival >= ev.now-a.Cfg.RecentWindow
}

func (a *Analyzer) refDropAffectedFlows(ev evidence) map[dataplane.FlowID]bool {
	type agg struct {
		src, sink uint64
		gap       bool
		seen      map[uint32]bool
	}
	byFlow := make(map[dataplane.FlowID]*agg)
	for _, r := range ev.records {
		if !a.refRecent(ev, r) {
			continue
		}
		f := byFlow[r.Flow]
		if f == nil {
			f = &agg{seen: make(map[uint32]bool)}
			byFlow[r.Flow] = f
		}
		if r.EpochGap > 0 {
			f.gap = true
		}
		if !f.seen[r.Epoch] {
			f.seen[r.Epoch] = true
			f.src += uint64(r.SourceCount)
			f.sink += uint64(r.SinkCount)
		}
	}
	affected := make(map[dataplane.FlowID]bool)
	for _, flow := range det.KeysFunc(byFlow, flowLess) {
		f := byFlow[flow]
		if f.gap {
			affected[flow] = true
			continue
		}
		margin := uint64(a.dropMargin(uint32(min(f.src, 1<<31))))
		if f.src > f.sink+margin {
			affected[flow] = true
		}
	}
	return affected
}

func (a *Analyzer) refSignatureData(ix *refIndex) {
	if ix.stats != nil {
		return
	}
	ix.stats = make(map[dataplane.FlowID]*flowStats)
	for i, r := range ix.records {
		fs := ix.stats[r.Flow]
		if fs == nil {
			fs = &flowStats{
				epochCounts: make(map[uint32]uint32),
				epochSinks:  make(map[uint32]uint32),
				gapEpochs:   make(map[uint32]bool),
			}
			ix.stats[r.Flow] = fs
		}
		if r.SourceCount > fs.epochCounts[r.Epoch] {
			fs.epochCounts[r.Epoch] = r.SourceCount
		}
		if r.SinkCount > fs.epochSinks[r.Epoch] {
			fs.epochSinks[r.Epoch] = r.SinkCount
		}
		if r.EpochGap > 0 {
			fs.gapEpochs[r.Epoch] = true
		}
		if path := ix.entries[i].path; path != nil {
			ps := fs.pathOf(r.PathID, path)
			ps.pkts += float64(r.PathCount) + 1
			if ix.over[i] {
				ps.abnormal += float64(r.PathCount) + 1
			}
		}
		if !fs.hasEpoch || r.Epoch < fs.minEpoch {
			fs.minEpoch = r.Epoch
			fs.hasEpoch = true
		}
		if ix.over[i] {
			fs.abnormalQueueDepths = append(fs.abnormalQueueDepths, float64(r.TotalQueueDepth))
		}
	}
	ix.flows = det.KeysFunc(ix.stats, flowLess)
	ix.sinkRanges = collectSinkRanges(ix.records)
	ix.globalMed = refGlobalMedianEpochCount(ix.stats)
}

func refGlobalMedianEpochCount(stats map[dataplane.FlowID]*flowStats) float64 {
	var all []float64
	for _, fs := range stats {
		//mars:mapiter-ok all is fully sorted before use
		for _, c := range fs.epochCounts {
			all = append(all, float64(c))
		}
	}
	if len(all) == 0 {
		return 0
	}
	sort.Float64s(all)
	n := len(all)
	if n%2 == 1 {
		return all[n/2]
	}
	return (all[n/2-1] + all[n/2]) / 2
}

func (a *Analyzer) refAnalyzeLatency(ix *refIndex) []Culprit {
	if a.Cfg.MinAbnormalRecords > 0 && a.Thr != nil && ix.overRecords < a.Cfg.MinAbnormalRecords {
		return nil
	}
	patterns, _ := a.minePatterns(ix.mined(), ix.over)
	if len(patterns) == 0 {
		return nil
	}
	a.refSignatureData(ix)
	stats, sinkRanges, globalMed := ix.stats, ix.sinkRanges, ix.globalMed

	var normalDepths []float64
	for i, r := range ix.records {
		if !ix.over[i] {
			normalDepths = append(normalDepths, float64(r.TotalQueueDepth))
		}
	}
	baseQ := 1.0
	if len(normalDepths) > 0 {
		sort.Float64s(normalDepths)
		if m := normalDepths[len(normalDepths)/2]; m > baseQ {
			baseQ = m
		}
	}

	var culprits []Culprit
	for _, sp := range patterns {
		if sp.score <= 0 {
			continue
		}
		flowPkts := make(map[dataplane.FlowID]float64)
		var total float64
		for _, flow := range ix.flows {
			if cnt := stats[flow].pktsThrough(sp.sub); cnt > 0 {
				flowPkts[flow] = cnt
				total += cnt
			}
		}
		if total == 0 {
			continue
		}

		if ext := a.refRunExtensions(sp, flowPkts, stats, baseQ, globalMed); len(ext) > 0 {
			culprits = append(culprits, ext...)
			continue
		}

		burstFound := false
		for _, flow := range det.KeysFunc(flowPkts, flowLess) {
			cnt := flowPkts[flow]
			fs := stats[flow]
			if a.isBursty(fs, sinkRanges[flow.Sink], globalMed) {
				burstFound = true
				culprits = append(culprits, Culprit{
					Cause:    CauseMicroBurst,
					Level:    LevelFlow,
					Flow:     flow,
					Location: append([]topology.NodeID{}, sp.sub...),
					Score:    sp.score * (cnt / total),
				})
			}
		}
		if burstFound {
			continue
		}

		var depths []float64
		//mars:mapiter-ok depths is fully sorted before use
		for flow := range flowPkts {
			depths = append(depths, stats[flow].abnormalQueueDepths...)
		}
		sort.Float64s(depths)
		patternCongested := len(depths) > 0 &&
			depths[len(depths)/2] >= float64(a.Cfg.QueueCongested) &&
			depths[len(depths)/2] >= a.Cfg.CongestionFactor*baseQ

		c := Culprit{Score: sp.score, Location: append([]topology.NodeID{}, sp.sub...)}
		if patternCongested {
			votes := make(map[topology.NodeID]int)
			weight := make(map[topology.NodeID]float64)
			for _, flow := range det.KeysFunc(flowPkts, flowLess) {
				if u, ok := a.ecmpUpstream(stats[flow], sp.sub); ok {
					votes[u]++
					weight[u] += flowPkts[flow]
				}
			}
			var up topology.NodeID
			found := false
			best := 0.0
			for _, u := range det.Keys(votes) {
				if n := votes[u]; n >= 2 && weight[u] > best {
					up, found, best = u, true, weight[u]
				}
			}
			if found {
				c.Cause = CauseECMPImbalance
				c.Level = LevelSwitch
				c.Location = []topology.NodeID{up}
				if a.Cfg.CompoundCauses {
					if link, ok := a.refDegradedLightBranch(up, flowPkts, stats); ok {
						culprits = append(culprits, Culprit{
							Cause:    CauseLinkDegrade,
							Level:    LevelPort,
							Location: link,
							Score:    sp.score * compoundBoost,
						})
					}
				}
			} else {
				c.Cause = CauseProcessRate
				if len(sp.sub) == 2 {
					c.Level = LevelPort
				} else {
					c.Level = LevelSwitch
				}
				if a.Cfg.CompoundCauses && len(sp.sub) == 2 &&
					a.refLossFlowCount(flowPkts, stats) >= 2 {
					c.Cause = CauseLinkDegrade
					c.Score = sp.score * compoundBoost
				}
			}
		} else {
			c.Cause = CauseDelay
			c.Level = LevelSwitch
			if len(sp.sub) == 2 {
				c.Level = LevelPort
			}
		}
		culprits = append(culprits, c)
	}
	return rank(mergeCulprits(culprits))
}

func (a *Analyzer) refAnalyzeDrop(ix *refIndex, affected map[dataplane.FlowID]bool) []Culprit {
	if ix.dropFlagged {
		affected[ix.flagged] = true
	}
	failing := make([]bool, len(ix.records))
	for i, r := range ix.records {
		failing[i] = affected[r.Flow]
	}
	patterns, abnormalPkts := a.minePatterns(ix.mined(), failing)
	a.refSignatureData(ix)
	stats, sinkRanges, globalMed := ix.stats, ix.sinkRanges, ix.globalMed
	var culprits []Culprit
	for _, sp := range patterns {
		if sp.score <= 0 {
			continue
		}
		burstFound := false
		for _, flow := range ix.flows {
			fs := stats[flow]
			if !fs.hasEpoch {
				continue
			}
			covers := false
			for _, ps := range fs.paths {
				if ps.path.Contains(sp.sub) {
					covers = true
					break
				}
			}
			if covers && a.isBursty(fs, sinkRanges[flow.Sink], globalMed) {
				burstFound = true
				culprits = append(culprits, Culprit{
					Cause:    CauseMicroBurst,
					Level:    LevelFlow,
					Flow:     flow,
					Location: append([]topology.NodeID{}, sp.sub...),
					Score:    sp.score,
				})
			}
		}
		if burstFound {
			continue
		}
		c := Culprit{
			Cause:    CauseDrop,
			Location: append([]topology.NodeID{}, sp.sub...),
			Score:    sp.score * (sp.npf / abnormalPkts),
		}
		if len(sp.sub) == 2 {
			c.Level = LevelPort
		} else {
			c.Level = LevelSwitch
		}
		if a.Cfg.CompoundCauses {
			c.Cause = a.refClassifyDropCause(sp.sub, affected, stats)
		}
		culprits = append(culprits, c)
	}
	return rank(mergeCulprits(culprits))
}

func (a *Analyzer) refDegradedLightBranch(up topology.NodeID, flowPkts map[dataplane.FlowID]float64, stats map[dataplane.FlowID]*flowStats) ([]topology.NodeID, bool) {
	succCount := make(map[topology.NodeID]float64)
	succAbnormal := make(map[topology.NodeID]float64)
	succGapFlows := make(map[topology.NodeID]float64)
	for _, flow := range det.KeysFunc(flowPkts, flowLess) {
		fs := stats[flow]
		flowGaps := float64(len(fs.gapEpochs))
		for _, ps := range fs.paths {
			path := ps.path
			for i := 0; i+1 < len(path); i++ {
				if path[i] != up {
					continue
				}
				w := path[i+1]
				succCount[w] += ps.pkts
				succAbnormal[w] += ps.abnormal
				if flowGaps > 0 {
					succGapFlows[w] += flowGaps
				}
				break
			}
		}
	}
	if len(succCount) < 2 {
		return nil, false
	}
	var heavy topology.NodeID
	best := -1.0
	for _, w := range det.Keys(succCount) {
		if succCount[w] > best {
			heavy, best = w, succCount[w]
		}
	}
	var light topology.NodeID
	bestEv := 0.0
	found := false
	for _, w := range det.Keys(succCount) {
		if w == heavy {
			continue
		}
		ev := succAbnormal[w] + 2*succGapFlows[w]
		if ev > bestEv {
			light, bestEv, found = w, ev, true
		}
	}
	if !found || bestEv < a.Cfg.MinLinkEvidence {
		return nil, false
	}
	return []topology.NodeID{up, light}, true
}

func (a *Analyzer) refLossFlowCount(flowPkts map[dataplane.FlowID]float64, stats map[dataplane.FlowID]*flowStats) int {
	n := 0
	//mars:mapiter-ok pure count; any visit order yields the same total
	for flow := range flowPkts {
		fs := stats[flow]
		var src, sink uint64
		gap := false
		//mars:mapiter-ok pure sums over the flow's epochs
		for e, c := range fs.epochCounts {
			src += uint64(c)
			sink += uint64(fs.epochSinks[e])
			if fs.gapEpochs[e] {
				gap = true
			}
		}
		margin := uint64(a.dropMargin(uint32(min(src, 1<<31))))
		if gap || src > sink+margin {
			n++
		}
	}
	return n
}

func (a *Analyzer) refClassifyDropCause(sub []topology.NodeID, affected map[dataplane.FlowID]bool, stats map[dataplane.FlowID]*flowStats) Cause {
	maxTrans := 0
	hardLoss := false
	abnormalWeight := 0.0
	neighbors := make(map[topology.NodeID]bool)
	for _, flow := range det.KeysFunc(stats, flowLess) {
		fs := stats[flow]
		covers := false
		for _, ps := range fs.paths {
			path := ps.path
			if !path.Contains(sub) {
				continue
			}
			covers = true
			if affected[flow] {
				abnormalWeight += ps.abnormal
			}
			if len(sub) == 1 {
				for i, sw := range path {
					if sw != sub[0] {
						continue
					}
					if i > 0 {
						neighbors[path[i-1]] = true
					}
					if i+1 < len(path) {
						neighbors[path[i+1]] = true
					}
				}
			}
		}
		if covers && affected[flow] {
			if t := a.flapTransitions(fs); t > maxTrans {
				maxTrans = t
			}
			if !hardLoss {
				for _, e := range det.Keys(fs.epochCounts) {
					if fs.hardLossEpoch(e) {
						hardLoss = true
						break
					}
				}
			}
		}
	}
	if a.Cfg.FlapMinTransitions > 0 && maxTrans >= a.Cfg.FlapMinTransitions &&
		abnormalWeight < a.Cfg.MinLinkEvidence {
		return CauseLinkFlap
	}
	if len(sub) == 1 && hardLoss && a.Cfg.RebootMinFan > 0 && len(neighbors) >= a.Cfg.RebootMinFan {
		return CauseSwitchReboot
	}
	if len(sub) == 2 && !hardLoss && abnormalWeight >= a.Cfg.MinLinkEvidence {
		return CauseLinkDegrade
	}
	return CauseDrop
}

func (a *Analyzer) refRunExtensions(sp scoredPattern, flowPkts map[dataplane.FlowID]float64, stats map[dataplane.FlowID]*flowStats, baseQ, globalMed float64) []Culprit {
	if len(a.extensions) == 0 {
		return nil
	}
	ev := PatternEvidence{
		Pattern:            sp.sub,
		Score:              sp.score,
		BaselineQueueDepth: baseQ,
		GlobalMedianRate:   globalMed,
	}
	for _, flow := range det.KeysFunc(flowPkts, flowLess) {
		fs := stats[flow]
		peak, base := fs.peakAndBaseline()
		ev.Flows = append(ev.Flows, FlowEvidence{
			Flow:                  flow,
			PacketsThroughPattern: flowPkts[flow],
			PeakEpochRate:         float64(peak),
			BaselineEpochRate:     base,
			AbnormalQueueMedian:   fs.abnormalQueueMedian(),
			AbnormalRecords:       len(fs.abnormalQueueDepths),
		})
	}
	var out []Culprit
	for _, ns := range a.extensions {
		m, ok := ns.fn(ev)
		if !ok {
			continue
		}
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		loc := m.Location
		if loc == nil {
			loc = append([]topology.NodeID{}, sp.sub...)
		}
		out = append(out, Culprit{
			Cause:    m.Cause,
			Level:    m.Level,
			Location: loc,
			Flow:     m.Flow,
			Score:    sp.score * w,
		})
	}
	return out
}

func (a *Analyzer) refAnalyze(d controlplane.Diagnosis) []Culprit {
	ev := evidence{records: d.Records, now: d.Time}
	if d.Trigger.Kind == dataplane.NotifyDrop {
		ev.dropFlagged, ev.flagged = true, d.Trigger.Flow
	}
	ix := a.refIndex(ev)
	lat := a.refAnalyzeLatency(ix)
	var affected map[dataplane.FlowID]bool
	if len(lat) == 0 || ev.dropFlagged || a.Cfg.CompoundCauses {
		affected = a.refDropAffectedFlows(ev)
	}
	out := lat
	if len(affected) > 0 || (len(lat) > 0 && ev.dropFlagged) {
		out = combineViews(lat, a.refAnalyzeDrop(ix, affected))
	}
	return withConfidence(out, d.Coverage()*d.ReconstructionConfidence())
}

func (a *Analyzer) refAnalyzeWindow(records []dataplane.RTRecord, now netsim.Time, coverage float64) []Culprit {
	ev := evidence{records: records, now: now}
	ix := a.refIndex(ev)
	out := a.refAnalyzeLatency(ix)
	if affected := a.refDropAffectedFlows(ev); len(affected) > 0 {
		if drop := a.refAnalyzeDrop(ix, affected); len(drop) > 0 {
			out = combineViews(out, drop)
		}
	}
	if coverage < 0 {
		coverage = 0
	}
	if coverage > 1 {
		coverage = 1
	}
	return withConfidence(out, coverage)
}
