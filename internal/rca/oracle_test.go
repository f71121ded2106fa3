package rca

import (
	"slices"
	"sort"

	"mars/internal/controlplane"
	"mars/internal/dataplane"
	"mars/internal/det"
	"mars/internal/fsm"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/sbfl"
	"mars/internal/topology"
)

// flowLess orders FlowIDs by (Src, Sink): the order per-flow evidence is
// read in.
func flowLess(a, b dataplane.FlowID) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Sink < b.Sink
}

// The per-record reference. This file is the evidence pipeline as it stood
// before the index numbered its flows and before it grouped its records into
// (flow, path) and (flow, epoch) rows, kept as the oracle of
// TestIndexMatchesPerRecordOracle: a threshold and a Paths.Lookup per
// record, one mined sequence per failing record, drop aggregation in a map
// of per-flow epoch maps, per-flow summaries in three epoch maps and a
// PathID-keyed path memo, every derived set keyed by FlowID. It shares with
// the pipeline under test only what those changes left alone — the
// signatures' predicates (isBursty, ecmpUpstream, flapTransitions, which it
// reaches by converting a flow's maps with shared), the merge and the
// ranking. refAnalyzeLatency, refAnalyzeDrop and refClassifyDropCause are
// also cause assignment as it stood before the signature chains: one
// decision tree per view, the compound branches spliced into it. Do not
// modernise it.

// refEntry is Alg. 2's estimate for one telemetry record: the record stands
// for weight packets along path.
type refEntry struct {
	path   topology.Path // nil when the record's PathID does not decode
	weight int
}

// lessPath orders switch sequences lexicographically.
func lessPath(a, b []topology.NodeID) bool { return slices.Compare(a, b) < 0 }

// refCollectSinkRanges computes the covered epoch window per sink switch.
func refCollectSinkRanges(records []dataplane.RTRecord) map[topology.NodeID]*sinkEpochRange {
	out := make(map[topology.NodeID]*sinkEpochRange)
	for i := range records {
		r := &records[i]
		if sr := out[r.Flow.Sink]; sr != nil {
			sr.min, sr.max = min(sr.min, r.Epoch), max(sr.max, r.Epoch)
		} else {
			out[r.Flow.Sink] = &sinkEpochRange{r.Epoch, r.Epoch}
		}
	}
	return out
}

// refMinePatterns is minePatterns with one database sequence per failing
// record; failing runs parallel to the entries.
func (a *Analyzer) refMinePatterns(entries []refEntry, failing []bool) ([]scoredPattern, float64) {
	var seqs, items int
	for i, e := range entries {
		if e.path != nil && failing[i] {
			seqs++
			items += len(e.path)
		}
	}
	if seqs == 0 {
		return nil, 0
	}
	db := make(fsm.Dataset, 0, seqs)
	weights := make([]int, 0, seqs)
	slab := make(fsm.Sequence, 0, items)
	var failPkts, passPkts int
	for i, e := range entries {
		switch {
		case e.path == nil:
		case failing[i]:
			from := len(slab)
			for _, sw := range e.path {
				slab = append(slab, fsm.Item(sw))
			}
			db = append(db, slab[from:len(slab):len(slab)])
			weights = append(weights, e.weight)
			failPkts += e.weight
		default:
			passPkts += e.weight
		}
	}
	patterns := a.Cfg.Miner.Mine(db, fsm.Params{
		MinRelSupport: a.Cfg.MinRelSupport,
		MaxLen:        a.Cfg.MaxPatternLen,
		Weights:       weights,
	})
	out := make([]scoredPattern, 0, len(patterns))
	for _, pat := range patterns {
		sub := make([]topology.NodeID, len(pat.Items))
		for i, it := range pat.Items {
			sub[i] = topology.NodeID(it)
		}
		var npf, nps int
		for i, e := range entries {
			if e.path == nil || !e.path.Contains(sub) {
				continue
			}
			if failing[i] {
				npf += e.weight
			} else {
				nps += e.weight
			}
		}
		spec := sbfl.Spectrum{
			Npf: float64(npf),
			Nps: float64(nps),
			Nnf: float64(failPkts - npf),
			Nns: float64(passPkts - nps),
		}
		out = append(out, scoredPattern{
			sub:   sub,
			score: a.Cfg.Formula(spec),
			npf:   spec.Npf,
		})
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
	return out, float64(failPkts)
}

// refFlowStats summarizes one flow's diagnosis data in maps by epoch.
type refFlowStats struct {
	// epochCounts maps telemetry epoch -> source-side packet count.
	epochCounts map[uint32]uint32
	paths       []refPathStat
	// abnormalQueueDepths collects depths of the flow's over-threshold
	// records.
	abnormalQueueDepths []float64
	// epochSinks maps telemetry epoch -> sink-side packet count, and
	// gapEpochs marks epochs whose records reported telemetry gaps.
	epochSinks map[uint32]uint32
	gapEpochs  map[uint32]bool
	// minEpoch is the earliest epoch among the flow's records.
	minEpoch uint32
	hasEpoch bool
}

// refPathStat is one path of a flow in the diagnosis data.
type refPathStat struct {
	// id is the path's PathID: unique per sink, so unique within a flow.
	id             pathid.ID
	path           topology.Path
	pkts, abnormal float64
}

// pathOf returns the flow's entry for a decoded path, adding it on first
// sight.
func (fs *refFlowStats) pathOf(id pathid.ID, path topology.Path) *refPathStat {
	for i := range fs.paths {
		if fs.paths[i].id == id {
			return &fs.paths[i]
		}
	}
	fs.paths = append(fs.paths, refPathStat{id: id, path: path})
	return &fs.paths[len(fs.paths)-1]
}

func (fs *refFlowStats) pktsThrough(sub []topology.NodeID) float64 {
	var cnt float64
	for i := range fs.paths {
		if fs.paths[i].path.Contains(sub) {
			cnt += fs.paths[i].pkts
		}
	}
	return cnt
}

func (fs *refFlowStats) peakAndBaseline() (peak uint32, base float64) {
	if len(fs.epochCounts) == 0 {
		return 0, 0
	}
	counts := make([]float64, 0, len(fs.epochCounts))
	//mars:mapiter-ok peak is a pure maximum and counts is fully sorted before use
	for _, c := range fs.epochCounts {
		if c > peak {
			peak = c
		}
		counts = append(counts, float64(c))
	}
	sort.Float64s(counts)
	return peak, counts[len(counts)/4]
}

func (fs *refFlowStats) hardLossEpoch(e uint32) bool {
	src := fs.epochCounts[e]
	return fs.gapEpochs[e] || (src >= 4 && fs.epochSinks[e]*2 < src)
}

// shared presents the flow to the predicates the reference shares with the
// pipeline under test: every epoch any of the maps (or minEpoch) knows, in
// ascending order, and the paths.
func (fs *refFlowStats) shared() *flowStats {
	known := make(map[uint32]bool)
	if fs.hasEpoch {
		known[fs.minEpoch] = true
	}
	//mars:mapiter-ok the union is sorted below
	for e := range fs.epochCounts {
		known[e] = true
	}
	//mars:mapiter-ok the union is sorted below
	for e := range fs.epochSinks {
		known[e] = true
	}
	//mars:mapiter-ok the union is sorted below
	for e := range fs.gapEpochs {
		known[e] = true
	}
	out := &flowStats{abnormalQueueDepths: fs.abnormalQueueDepths}
	for _, e := range det.Keys(known) {
		out.epochs = append(out.epochs, epochStat{e, fs.epochCounts[e], fs.epochSinks[e], fs.gapEpochs[e]})
	}
	for _, ps := range fs.paths {
		out.paths = append(out.paths, pathStat{path: ps.path, pkts: ps.pkts, abnormal: ps.abnormal})
	}
	return out
}

type refIndex struct {
	records     []dataplane.RTRecord
	entries     []refEntry
	over        []bool
	overRecords int

	stats      map[dataplane.FlowID]*refFlowStats
	flows      []dataplane.FlowID
	sinkRanges map[topology.NodeID]*sinkEpochRange
	globalMed  float64
}

func (a *Analyzer) refIndex(records []dataplane.RTRecord) *refIndex {
	ix := &refIndex{
		records: records,
		entries: make([]refEntry, len(records)),
		over:    make([]bool, len(records)),
	}
	for i, r := range records {
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
		if n > maxEstimatePerRecord {
			n = maxEstimatePerRecord
		}
		ix.entries[i] = refEntry{path: path, weight: n}
	}
	return ix
}

func (a *Analyzer) refDecode(r dataplane.RTRecord) (topology.Path, bool) {
	return a.Paths.Lookup(r.Flow.Sink, r.PathID)
}

func (a *Analyzer) refRecent(now netsim.Time, r dataplane.RTRecord) bool {
	return a.Cfg.RecentWindow <= 0 || r.Arrival >= now-a.Cfg.RecentWindow
}

func (a *Analyzer) refDropAffectedFlows(records []dataplane.RTRecord, now netsim.Time) map[dataplane.FlowID]bool {
	type agg struct {
		src, sink uint64
		gap       bool
		seen      map[uint32]bool
	}
	byFlow := make(map[dataplane.FlowID]*agg)
	for _, r := range records {
		if !a.refRecent(now, r) {
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
	ix.stats = make(map[dataplane.FlowID]*refFlowStats)
	for i, r := range ix.records {
		fs := ix.stats[r.Flow]
		if fs == nil {
			fs = &refFlowStats{
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
	ix.sinkRanges = refCollectSinkRanges(ix.records)
	ix.globalMed = refGlobalMedianEpochCount(ix.stats)
}

func refGlobalMedianEpochCount(stats map[dataplane.FlowID]*refFlowStats) float64 {
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
	if a.Thr != nil && ix.overRecords < minAbnormalRecords {
		return nil
	}
	patterns, _ := a.refMinePatterns(ix.entries, ix.over)
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

		burstFound := false
		for _, flow := range det.KeysFunc(flowPkts, flowLess) {
			cnt := flowPkts[flow]
			fs := stats[flow]
			if a.isBursty(fs.shared(), sinkRanges[flow.Sink], globalMed) {
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
			depths[len(depths)/2] >= queueCongested &&
			depths[len(depths)/2] >= congestionFactor*baseQ

		c := Culprit{Score: sp.score, Location: append([]topology.NodeID{}, sp.sub...)}
		if patternCongested {
			votes := make(map[topology.NodeID]int)
			weight := make(map[topology.NodeID]float64)
			for _, flow := range det.KeysFunc(flowPkts, flowLess) {
				if u, ok := a.ecmpUpstream(stats[flow].shared(), sp.sub); ok {
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
	return rank(new(workingSet).mergeCulprits(culprits))
}

func (a *Analyzer) refAnalyzeDrop(ix *refIndex, affected map[dataplane.FlowID]bool) []Culprit {
	failing := make([]bool, len(ix.records))
	for i, r := range ix.records {
		failing[i] = affected[r.Flow]
	}
	patterns, abnormalPkts := a.refMinePatterns(ix.entries, failing)
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
			if covers && a.isBursty(fs.shared(), sinkRanges[flow.Sink], globalMed) {
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
	return rank(new(workingSet).mergeCulprits(culprits))
}

func (a *Analyzer) refDegradedLightBranch(up topology.NodeID, flowPkts map[dataplane.FlowID]float64, stats map[dataplane.FlowID]*refFlowStats) ([]topology.NodeID, bool) {
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
	if !found || bestEv < minLinkEvidence {
		return nil, false
	}
	return []topology.NodeID{up, light}, true
}

func (a *Analyzer) refLossFlowCount(flowPkts map[dataplane.FlowID]float64, stats map[dataplane.FlowID]*refFlowStats) int {
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

func (a *Analyzer) refClassifyDropCause(sub []topology.NodeID, affected map[dataplane.FlowID]bool, stats map[dataplane.FlowID]*refFlowStats) Cause {
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
			if t := a.flapTransitions(fs.shared()); t > maxTrans {
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
	if maxTrans >= flapMinTransitions &&
		abnormalWeight < minLinkEvidence {
		return CauseLinkFlap
	}
	if len(sub) == 1 && hardLoss && len(neighbors) >= rebootMinFan {
		return CauseSwitchReboot
	}
	if len(sub) == 2 && !hardLoss && abnormalWeight >= minLinkEvidence {
		return CauseLinkDegrade
	}
	return CauseDrop
}

func (a *Analyzer) refAnalyze(d controlplane.Diagnosis) []Culprit {
	return a.refAnalyzeWindow(d.Records, d.Time, d.Coverage())
}

func (a *Analyzer) refAnalyzeWindow(records []dataplane.RTRecord, now netsim.Time, coverage float64) []Culprit {
	ix := a.refIndex(records)
	out := a.refAnalyzeLatency(ix)
	if affected := a.refDropAffectedFlows(records, now); len(affected) > 0 {
		drop := a.refAnalyzeDrop(ix, affected)
		switch {
		case len(out) == 0:
			out = drop
		case len(drop) > 0:
			out = MergeRanked([][]Culprit{out, drop})
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
