package rca

import (
	"slices"
	"sort"

	"mars/internal/dataplane"
	"mars/internal/det"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// flowLess orders FlowIDs: the order per-flow evidence is read in.
func flowLess(a, b dataplane.FlowID) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Sink < b.Sink
}

// flowStats summarizes one flow's diagnosis data for signature matching.
type flowStats struct {
	// epochCounts maps telemetry epoch -> source-side packet count.
	epochCounts map[uint32]uint32
	// paths holds the flow's decoded paths in first-record order. Readers
	// only sum integer-valued packet counts over it or test existence, so
	// the order never reaches the output.
	paths []pathStat
	// abnormalQueueDepths collects depths of the flow's over-threshold
	// records; the congestion signature uses their median, which is robust
	// to a single queue blip.
	abnormalQueueDepths []float64
	// epochSinks maps telemetry epoch -> sink-side packet count, and
	// gapEpochs marks epochs whose records reported telemetry gaps; the
	// flap signature reads per-epoch loss on/off transitions from them.
	epochSinks map[uint32]uint32
	gapEpochs  map[uint32]bool
	// minEpoch is the earliest epoch among the flow's records, used to
	// spot flows that appeared mid-window (candidate bursts).
	minEpoch uint32
	hasEpoch bool
}

// pathStat is one path of a flow in the diagnosis data.
type pathStat struct {
	// id is the path's PathID: unique per sink, so unique within a flow.
	id   pathid.ID
	path topology.Path
	// pkts is the packets across the path's records; abnormal is the part
	// of it on over-threshold records. The link-degrade signature uses the
	// latter to find degradation evidence on an ECMP branch that carries
	// little traffic.
	pkts, abnormal float64
}

// pathOf returns the flow's entry for a decoded path, adding it on first
// sight.
func (fs *flowStats) pathOf(id pathid.ID, path topology.Path) *pathStat {
	for i := range fs.paths {
		if fs.paths[i].id == id {
			return &fs.paths[i]
		}
	}
	fs.paths = append(fs.paths, pathStat{id: id, path: path})
	return &fs.paths[len(fs.paths)-1]
}

// flowPkts is one flow, by number, and its packets through a pattern.
type flowPkts struct {
	flow int32
	pkts float64
}

// pktsThrough sums the flow's packets on paths that contain sub.
func (fs *flowStats) pktsThrough(sub []topology.NodeID) float64 {
	var cnt float64
	for i := range fs.paths {
		if fs.paths[i].path.Contains(sub) {
			cnt += fs.paths[i].pkts
		}
	}
	return cnt
}

// abnormalQueueMedian returns the median depth among abnormal records.
func (fs *flowStats) abnormalQueueMedian() float64 {
	if len(fs.abnormalQueueDepths) == 0 {
		return 0
	}
	s := make([]float64, len(fs.abnormalQueueDepths))
	copy(s, fs.abnormalQueueDepths)
	sort.Float64s(s)
	return s[len(s)/2]
}

// sinkEpochRange tracks the telemetry epochs covered by one sink's Ring
// Table snapshot; a flow missing from an in-range epoch provably sent
// nothing that epoch (every active epoch marks a telemetry packet).
type sinkEpochRange struct {
	min, max uint32
	valid    bool
}

// collectSinkRanges computes the covered epoch window per sink switch.
func collectSinkRanges(records []dataplane.RTRecord) map[topology.NodeID]*sinkEpochRange {
	out := make(map[topology.NodeID]*sinkEpochRange)
	for i := range records {
		r := &records[i]
		sr := out[r.Flow.Sink]
		if sr == nil {
			sr = &sinkEpochRange{}
			out[r.Flow.Sink] = sr
		}
		if !sr.valid {
			sr.min, sr.max, sr.valid = r.Epoch, r.Epoch, true
			continue
		}
		if r.Epoch < sr.min {
			sr.min = r.Epoch
		}
		if r.Epoch > sr.max {
			sr.max = r.Epoch
		}
	}
	return out
}

// signatureData indexes the diagnosis records per flow, with the sink
// epoch ranges and the network-wide median rate the burst signature
// needs — once per index, on the first view that has patterns to explain.
func (a *Analyzer) signatureData(ix *index) {
	if ix.stats != nil {
		return
	}
	a.estimate(ix)
	ix.stats = make([]flowStats, len(ix.flowIDs))
	for f := range ix.stats {
		ix.stats[f] = flowStats{
			epochCounts: make(map[uint32]uint32),
			epochSinks:  make(map[uint32]uint32),
			gapEpochs:   make(map[uint32]bool),
		}
		ix.flows = append(ix.flows, int32(f))
	}
	sort.Slice(ix.flows, func(i, j int) bool { return flowLess(ix.flowIDs[ix.flows[i]], ix.flowIDs[ix.flows[j]]) })
	for i := range ix.records {
		r := &ix.records[i]
		fs := &ix.stats[ix.flowOf[i]]
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
	ix.sinkRanges = collectSinkRanges(ix.records)
	ix.globalMed = globalMedianEpochCount(ix.stats)
}

// peakAndBaseline returns the peak per-epoch source count and the flow's
// quiet baseline: the 25th percentile of its recorded epoch rates. Missing
// epochs are NOT treated as zero-rate silence — ring eviction and
// fault-delayed telemetry also produce gaps, and padding them with zeros
// fabricates burstiness for perfectly steady flows.
func (fs *flowStats) peakAndBaseline() (peak uint32, base float64) {
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

// globalMedianEpochCount is the baseline rate across all flows, used to
// judge burstiness of flows without their own history.
func globalMedianEpochCount(stats []flowStats) float64 {
	var all []float64
	for f := range stats {
		//mars:mapiter-ok all is fully sorted before use
		for _, c := range stats[f].epochCounts {
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

// isBursty applies the micro-burst signature: the flow's peak epoch rate
// rises sharply over its own quiet baseline — or, for a flow that only
// appeared mid-window at its sink (a transient flow with no history of
// its own), over the network-wide median rate with the relaxed factor.
func (a *Analyzer) isBursty(fs *flowStats, window *sinkEpochRange, globalMed float64) bool {
	peak, base := fs.peakAndBaseline()
	if base < 1 {
		base = 1
	}
	if len(fs.epochCounts) >= 3 && float64(peak) >= a.Cfg.BurstFactor*base {
		return true
	}
	// Absolute test: the paper defines micro-bursts by sheer rate ("over
	// 1000 pps" against ~200 pps background). It applies to flows that
	// appeared mid-window at their sink (new transient flows — the ring
	// evicts all flows' records chronologically, so a late first record
	// means the flow genuinely did not exist before) and to flows whose
	// rate at least doubled.
	newAtSink := window != nil && window.valid && fs.hasEpoch && fs.minEpoch >= window.min+2
	if a.Cfg.BurstPPS > 0 && a.Cfg.EpochDuration > 0 {
		peakPPS := float64(peak) / a.Cfg.EpochDuration.Seconds()
		if peakPPS >= a.Cfg.BurstPPS && (newAtSink || float64(peak) >= 2*base) {
			return true
		}
	}
	// Relative fallback against the network-wide median for new flows
	// below the absolute rate floor.
	if newAtSink {
		gm := globalMed
		if gm < 1 {
			gm = 1
		}
		return float64(peak) >= a.Cfg.BurstFactorNew*gm
	}
	return false
}

// ecmpDivergence finds the switch whose equal-cost split over this flow's
// paths is most imbalanced AND whose overloaded branch leads directly into
// `next` (the congested pattern head). It returns ok=false if no
// divergence reaches the configured ratio.
func (a *Analyzer) ecmpDivergence(fs *flowStats, next topology.NodeID) (topology.NodeID, float64, bool) {
	// Build a prefix tree of the flow's paths weighted by packet counts.
	type nodeKey struct {
		depth int
		sw    topology.NodeID
	}
	// children[parent][child switch] = accumulated count via that branch.
	children := make(map[nodeKey]map[topology.NodeID]float64)
	for _, ps := range fs.paths {
		cnt, path := ps.pkts, ps.path
		for i := 0; i+1 < len(path); i++ {
			pk := nodeKey{i, path[i]}
			m := children[pk]
			if m == nil {
				m = make(map[topology.NodeID]float64)
				children[pk] = m
			}
			m[path[i+1]] += cnt
		}
	}
	var bestSw topology.NodeID
	var bestRatio float64
	found := false
	for _, pk := range det.KeysFunc(children, func(a, b nodeKey) bool {
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.sw < b.sw
	}) {
		m := children[pk]
		if len(m) < 2 {
			continue
		}
		var max, min float64
		var heavy topology.NodeID
		first := true
		for _, child := range det.Keys(m) {
			cnt := m[child]
			if first || cnt > max {
				max = cnt
				heavy = child
			}
			if first || cnt < min {
				min = cnt
			}
			first = false
		}
		if min <= 0 {
			min = 1
		}
		ratio := max / min
		if ratio < a.Cfg.ImbalanceRatio {
			continue
		}
		// The overloaded branch must feed the congested switch for the
		// blame to transfer upstream (§4.4.4's s9 -> s1 example).
		if heavy != next {
			continue
		}
		if !found || ratio > bestRatio {
			bestSw, bestRatio, found = pk.sw, ratio, true
		}
	}
	return bestSw, bestRatio, found
}

// ecmpUpstream tries the ECMP signature against every switch of the
// pattern (the congestion may sit at either end of a link pattern) and
// returns the best upstream divergence switch.
func (a *Analyzer) ecmpUpstream(fs *flowStats, sub []topology.NodeID) (topology.NodeID, bool) {
	var best topology.NodeID
	var bestRatio float64
	found := false
	for _, next := range sub {
		if up, ratio, ok := a.ecmpDivergence(fs, next); ok {
			if !found || ratio > bestRatio {
				best, bestRatio, found = up, ratio, true
			}
		}
	}
	return best, found
}

// analyzeLatency is the high-latency diagnosis path (§4.4.1-4.4.4): the
// over-threshold records form the abnormal set.
func (a *Analyzer) analyzeLatency(ix *index) []Culprit {
	// Noise floor: too few over-threshold records means a transient blip,
	// not a localizable incident.
	if a.Cfg.MinAbnormalRecords > 0 && a.Thr != nil && ix.overRecords < a.Cfg.MinAbnormalRecords {
		return nil
	}
	patterns, _ := a.minePatterns(ix, ix.over)
	if len(patterns) == 0 {
		return nil
	}
	a.signatureData(ix)
	stats, sinkRanges, globalMed := ix.stats, ix.sinkRanges, ix.globalMed

	// Baseline queue depth from records classified normal: the congestion
	// signature requires abnormal depth to stand out against it.
	var normalDepths []float64
	for i := range ix.records {
		if !ix.over[i] {
			normalDepths = append(normalDepths, float64(ix.records[i].TotalQueueDepth))
		}
	}
	baseQ := 1.0
	if len(normalDepths) > 0 {
		sort.Float64s(normalDepths)
		if m := normalDepths[len(normalDepths)/2]; m > baseQ {
			baseQ = m
		}
	}

	// Alg. 3: for every culprit pattern, inspect the flows that traverse
	// it in the diagnosis data (all flows, not only flagged ones — the
	// offending micro-burst flow may be too new to have a calibrated
	// threshold) and assign the pattern's cause by signature matching.
	var culprits []Culprit
	var through []flowPkts
	for _, sp := range patterns {
		if sp.score <= 0 {
			continue
		}
		through = through[:0]
		var total float64
		for _, f := range ix.flows {
			if cnt := stats[f].pktsThrough(sp.sub); cnt > 0 {
				through = append(through, flowPkts{f, cnt})
				total += cnt
			}
		}
		if total == 0 {
			continue
		}

		// Operator-registered signatures run first (§5.6's extension
		// point); any match claims the pattern.
		if ext := a.runExtensions(ix, sp, through, baseQ); len(ext) > 0 {
			culprits = append(culprits, ext...)
			continue
		}

		// Micro-burst signature first: a bursting flow through the pattern
		// explains the congestion, so it claims the pattern (weighted by
		// its packet share) and suppresses spurious switch-level causes.
		burstFound := false
		for _, fp := range through {
			flow := ix.flowIDs[fp.flow]
			if a.isBursty(&stats[fp.flow], sinkRanges[flow.Sink], globalMed) {
				burstFound = true
				culprits = append(culprits, Culprit{
					Cause:    CauseMicroBurst,
					Level:    LevelFlow,
					Flow:     flow,
					Location: append([]topology.NodeID{}, sp.sub...),
					Score:    sp.score * (fp.pkts / total),
				})
			}
		}
		if burstFound {
			continue
		}

		// Queue-buildup signatures: pool the traversing flows' abnormal
		// queue observations.
		var depths []float64
		for _, fp := range through {
			depths = append(depths, stats[fp.flow].abnormalQueueDepths...)
		}
		sort.Float64s(depths)
		patternCongested := len(depths) > 0 &&
			depths[len(depths)/2] >= float64(a.Cfg.QueueCongested) &&
			depths[len(depths)/2] >= a.Cfg.CongestionFactor*baseQ

		c := Culprit{Score: sp.score, Location: append([]topology.NodeID{}, sp.sub...)}
		if patternCongested {
			// ECMP check across traversing flows. A single aggregated flow
			// with few subflows is naturally lumpy over its equal-cost
			// paths, so a divergence switch is blamed only when at least
			// two independent flows vote for the same upstream culprit.
			votes := make(map[topology.NodeID]int)
			weight := make(map[topology.NodeID]float64)
			for _, fp := range through {
				if u, ok := a.ecmpUpstream(&stats[fp.flow], sp.sub); ok {
					votes[u]++
					weight[u] += fp.pkts
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
				// Compound-cause check: if a starved branch out of the
				// divergence switch carries its own degradation evidence,
				// the imbalance is the reaction and the sick link the
				// root; rank the link above the switch.
				if a.Cfg.CompoundCauses {
					if link, ok := a.degradedLightBranch(up, through, stats); ok {
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
				// Compound-cause check: a congested link whose traversing
				// flows also lose packets is a degraded link, not a slow
				// processing stage — queuing delays packets but never
				// destroys them. Re-label and boost so the sick link wins
				// the ranking over its own downstream symptoms.
				if a.Cfg.CompoundCauses && len(sp.sub) == 2 &&
					a.lossFlowCount(through, stats) >= 2 {
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

// analyzeDrop is the separate drop-diagnosis logic (§4.4.4 "Drop"): the
// affected flows (dropAffectedFlows of the index, plus the flow a drop
// trigger flagged) form the abnormal set and a second SBFL instance ranks
// the shared locations.
func (a *Analyzer) analyzeDrop(ix *index, affected []bool) []Culprit {
	if f := slices.Index(ix.flowIDs, ix.flagged); ix.dropFlagged && f >= 0 {
		// The flagged flow, if any record is its, joins a copy of the set.
		affected = slices.Clone(affected)
		affected[f] = true
	}
	failing := make([]bool, len(ix.records))
	for i, f := range ix.flowOf {
		failing[i] = affected[f]
	}
	patterns, abnormalPkts := a.minePatterns(ix, failing)
	if len(patterns) > 0 {
		a.signatureData(ix)
	}
	stats, sinkRanges, globalMed := ix.stats, ix.sinkRanges, ix.globalMed
	var culprits []Culprit
	for _, sp := range patterns {
		if sp.score <= 0 {
			continue
		}
		// Loss caused by a bursting flow overflowing the queue is a
		// micro-burst symptom, not a link failure: attribute the pattern
		// to the burst flow.
		burstFound := false
		for _, f := range ix.flows {
			fs, flow := &stats[f], ix.flowIDs[f]
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
			// The share of the abnormal set's estimated packets that
			// cross the pattern.
			Score: sp.score * (sp.npf / abnormalPkts),
		}
		if len(sp.sub) == 2 {
			c.Level = LevelPort
		} else {
			c.Level = LevelSwitch
		}
		if a.Cfg.CompoundCauses {
			c.Cause = a.classifyDropCause(ix, sp.sub, affected)
		}
		culprits = append(culprits, c)
	}
	return rank(mergeCulprits(culprits))
}

// mergeCulprits applies §4.4.4's merge rules: repeated flow-level causes
// keep their maximum score; other repeated causes sum; and port-level
// causes of the same type on multiple ports of one switch collapse into a
// switch-level cause.
func mergeCulprits(cs []Culprit) []Culprit {
	type key struct {
		cause Cause
		level Level
		loc   string
		flow  dataplane.FlowID
	}
	merged := make(map[key]*Culprit)
	order := make([]key, 0, len(cs))
	for _, c := range cs {
		k := key{cause: c.Cause, level: c.Level, loc: topology.Path(c.Location).String()}
		if c.Level == LevelFlow {
			k.flow = c.Flow
			k.loc = "" // flow identity subsumes location
		}
		if m, ok := merged[k]; ok {
			if c.Level == LevelFlow {
				if c.Score > m.Score {
					m.Score = c.Score
					m.Location = c.Location
				}
			} else {
				m.Score += c.Score
			}
		} else {
			cc := c
			merged[k] = &cc
			order = append(order, k)
		}
	}

	// Port-level collapse: same cause on >= 2 ports of one switch becomes
	// one switch-level culprit with summed score.
	type swKey struct {
		cause Cause
		sw    topology.NodeID
	}
	portGroups := make(map[swKey][]key)
	for _, k := range order {
		m := merged[k]
		if m.Level == LevelPort && len(m.Location) >= 1 {
			g := swKey{m.Cause, m.Location[0]}
			portGroups[g] = append(portGroups[g], k)
		}
	}
	collapsed := make(map[key]bool)
	var extra []Culprit
	for _, g := range det.KeysFunc(portGroups, func(a, b swKey) bool {
		if a.cause != b.cause {
			return a.cause < b.cause
		}
		return a.sw < b.sw
	}) {
		ks := portGroups[g]
		if len(ks) < 2 {
			continue
		}
		var sum float64
		for _, k := range ks {
			sum += merged[k].Score
			collapsed[k] = true
		}
		extra = append(extra, Culprit{
			Cause:    g.cause,
			Level:    LevelSwitch,
			Location: []topology.NodeID{g.sw},
			Score:    sum,
		})
	}

	out := make([]Culprit, 0, len(order)+len(extra))
	for _, k := range order {
		if collapsed[k] {
			continue
		}
		out = append(out, *merged[k])
	}
	out = append(out, extra...)
	// The collapse can mint a switch-level culprit that duplicates an
	// existing one; fold such duplicates with one more merge pass.
	if len(extra) > 0 {
		return mergeOnce(out)
	}
	return out
}

// MergeRanked folds the culprit lists of several diagnoses of the same
// incident into one ranked list (an operator reviews the accumulated
// evidence): a Merger fed every list in order.
func MergeRanked(lists [][]Culprit) []Culprit {
	var m Merger
	for _, l := range lists {
		m.Add(l)
	}
	return m.Ranked()
}

// mergeKey is a culprit's identity under the cross-diagnosis merge: cause,
// level, and the flow (flow-level culprits, whose identity subsumes their
// location) or the location (everything else).
type mergeKey struct {
	cause Cause
	level Level
	loc   string
	flow  dataplane.FlowID
}

// Merger accumulates the culprit lists of successive diagnoses of one
// incident without retaining them: its state is one entry per distinct
// culprit, in first-appearance order. Add in diagnosis order, read Ranked
// at any point; the result is bit-identical to MergeRanked over the same
// lists. The zero value is ready to use.
type Merger struct {
	index map[mergeKey]int
	cs    []Culprit
}

// Add folds one diagnosis's culprit list in. The list is first normalized
// to a top score of 1 — SBFL scores are only comparable within one
// diagnosis — then duplicate culprits merge, so persistent culprits
// accumulate.
func (m *Merger) Add(list []Culprit) {
	if len(list) == 0 {
		return
	}
	max := list[0].Score
	for _, c := range list {
		if c.Score > max {
			max = c.Score
		}
	}
	if max <= 0 {
		max = 1
	}
	for _, c := range list {
		c.Score /= max
		m.fold(c)
	}
}

// fold merges one culprit into the accumulated set: exact duplicates
// (same cause, level, location, flow) sum. Within a single diagnosis the
// §4.4.4 max-rule for flow-level causes has already been applied by
// mergeCulprits, so at this stage (port-collapse leftovers and
// cross-diagnosis accumulation) every cause kind accumulates evidence the
// same way — otherwise flow-level culprits could never compete with
// switch-level ones that sum across repeated diagnoses.
func (m *Merger) fold(c Culprit) {
	k := mergeKey{cause: c.Cause, level: c.Level}
	if c.Level == LevelFlow {
		k.flow = c.Flow
	} else {
		k.loc = topology.Path(c.Location).String()
	}
	i, ok := m.index[k]
	if !ok {
		if m.index == nil {
			m.index = make(map[mergeKey]int)
		}
		m.index[k] = len(m.cs)
		m.cs = append(m.cs, c)
		return
	}
	m.cs[i].Score += c.Score
	// A culprit confirmed by a better-covered diagnosis keeps that
	// diagnosis's confidence.
	if c.Confidence > m.cs[i].Confidence {
		m.cs[i].Confidence = c.Confidence
	}
}

// Ranked returns the merged culprits so far, ranked (a fresh slice: the
// accumulated set keeps its first-appearance order for later Adds).
func (m *Merger) Ranked() []Culprit {
	out := make([]Culprit, len(m.cs))
	copy(out, m.cs)
	return rank(out)
}

// mergeOnce folds exact-duplicate culprits by summation, keeping
// first-appearance order.
func mergeOnce(cs []Culprit) []Culprit {
	var m Merger
	for _, c := range cs {
		m.fold(c)
	}
	return m.cs
}
