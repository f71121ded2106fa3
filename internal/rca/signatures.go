package rca

import (
	"cmp"
	"slices"
	"sort"

	"mars/internal/dataplane"
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
	// epochs is the flow's (flow, epoch) rows in ascending epoch order.
	epochs []epochStat
	// paths is the flow's decoded (flow, path) rows. Readers only sum
	// integer-valued packet counts over it or test existence, so the order
	// never reaches the output.
	paths []pathStat
	// abnormalQueueDepths collects depths of the flow's over-threshold
	// records; the congestion signature pools them over a pattern's flows
	// and reads the median, which is robust to a single queue blip.
	abnormalQueueDepths []float64
	// splits is the flow's imbalanced ECMP splits; nil until ecmpDivergence
	// first asks.
	splits []ecmpSplit
}

// epochStat is one (flow, epoch) row: the largest source- and sink-side
// packet counts among the flow's records of the epoch, and whether any of
// them reported a telemetry gap. The epoch is counted — it has a rate, and
// its loss is read — only when src > 0.
type epochStat struct {
	epoch     uint32
	src, sink uint32
	gap       bool
}

// flowPkts is one flow, by number, and its packets through a pattern.
type flowPkts struct {
	flow int32
	hit  bool // marked by the last per-flow predicate that read it
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

// swSum is one switch's sums in a slice kept sorted by switch ID, so a scan
// for a strict maximum breaks ties toward the lower ID: the divergence votes
// of imbalanced, the successors of degradedLightBranch, the neighbors of
// loss.
type swSum struct {
	sw                   topology.NodeID
	flows                int
	pkts, abnormal, gaps float64
}

// sumFor returns the entry of sw, inserted zero if s had none.
func sumFor(s []swSum, sw topology.NodeID) ([]swSum, *swSum) {
	i, ok := slices.BinarySearchFunc(s, sw, func(e swSum, sw topology.NodeID) int { return cmp.Compare(e.sw, sw) })
	if !ok {
		s = slices.Insert(s, i, swSum{sw: sw})
	}
	return s, &s[i]
}

// sinkEpochRange tracks the telemetry epochs covered by one sink's Ring
// Table snapshot; a flow missing from an in-range epoch provably sent
// nothing that epoch (every active epoch marks a telemetry packet).
type sinkEpochRange struct {
	min, max uint32
}

// collectSinkRanges computes the covered epoch window per sink switch into
// out, emptied first.
func collectSinkRanges(records []dataplane.RTRecord, out map[topology.NodeID]sinkEpochRange) {
	clear(out)
	for i := range records {
		r := &records[i]
		if sr, ok := out[r.Flow.Sink]; ok {
			out[r.Flow.Sink] = sinkEpochRange{min(sr.min, r.Epoch), max(sr.max, r.Epoch)}
		} else {
			out[r.Flow.Sink] = sinkEpochRange{r.Epoch, r.Epoch}
		}
	}
}

// signatureData builds the per-flow summaries — each flow's (flow, epoch)
// and (flow, path) rows — with the sink epoch ranges and the network-wide
// median rate the burst signature needs: once per index, on the first view
// that has patterns to explain. Its tables are the Analyzer's workingSet.
func (a *Analyzer) signatureData(ix *index) {
	if ix.stats != nil {
		return
	}
	a.estimate(ix)
	w, nf := &a.work, len(ix.flowIDs)
	// A flow's summary starts empty; only its depths' array is kept.
	ix.stats, ix.flows = slices.Grow(w.stats[:0], nf)[:nf], w.flows[:0]
	for f := range ix.stats {
		ix.stats[f] = flowStats{abnormalQueueDepths: ix.stats[f].abnormalQueueDepths[:0]}
		ix.flows = append(ix.flows, int32(f))
	}
	// Flows are distinct, so the order is strict and total: every sort
	// yields one permutation.
	slices.SortFunc(ix.flows, func(a, b int32) int {
		fa, fb := ix.flowIDs[a], ix.flowIDs[b]
		return cmp.Or(cmp.Compare(fa.Src, fb.Src), cmp.Compare(fa.Sink, fb.Sink))
	})

	// The (flow, epoch) table. A counting pass groups the records by flow
	// number into one array; each flow's stretch is then sorted by epoch and
	// its equal epochs folded in place, so a sort only ever sees one flow's
	// records (and stays O(n log n) when one flow is the whole frame).
	// at[f] counts flow f's records, then is where its stretch starts, then
	// — every placement advancing it — where it ends.
	at := slices.Grow(w.at[:0], nf)[:nf]
	clear(at)
	for _, f := range ix.flowOf {
		at[f]++
	}
	var sum int32
	for f, n := range at {
		at[f], sum = sum, sum+n
	}
	rows := slices.Grow(w.rows[:0], len(ix.records))[:len(ix.records)]
	for i := range ix.records {
		r, f := &ix.records[i], ix.flowOf[i]
		rows[at[f]] = epochStat{r.Epoch, r.SourceCount, r.SinkCount, r.EpochGap > 0}
		at[f]++
		if ix.over[i] {
			fs := &ix.stats[f]
			fs.abnormalQueueDepths = append(fs.abnormalQueueDepths, float64(r.TotalQueueDepth))
		}
	}
	var from int32
	for f := range ix.stats {
		run := rows[from:at[f]]
		from = at[f]
		slices.SortFunc(run, func(a, b epochStat) int { return cmp.Compare(a.epoch, b.epoch) })
		n := 0
		for _, e := range run {
			if n > 0 && run[n-1].epoch == e.epoch {
				last := &run[n-1]
				last.src, last.sink, last.gap = max(last.src, e.src), max(last.sink, e.sink), last.gap || e.gap
				continue
			}
			run[n] = e
			n++
		}
		ix.stats[f].epochs = run[:n:n]
	}

	// Each flow's rows of the (flow, path) table, the undecodable ones
	// dropped: a copy grouped by flow, first-record order kept within one.
	paths := slices.DeleteFunc(append(w.flowPaths[:0], ix.paths...), func(row pathStat) bool { return row.path == nil })
	slices.SortStableFunc(paths, func(a, b pathStat) int { return cmp.Compare(a.flow, b.flow) })
	for from := 0; from < len(paths); {
		to := from + 1
		for to < len(paths) && paths[to].flow == paths[from].flow {
			to++
		}
		ix.stats[paths[from].flow].paths = paths[from:to:to]
		from = to
	}

	collectSinkRanges(ix.records, w.sinkRanges)
	ix.sinkRanges = w.sinkRanges
	ix.globalMed = globalMedianEpochCount(ix.stats, &w.counts)
	w.stats, w.flows, w.at, w.rows, w.flowPaths = ix.stats, ix.flows, at, rows, paths
}

// appendCounts appends the source-side packet counts of the flow's counted
// epochs, in epoch order.
func (fs *flowStats) appendCounts(to []float64) []float64 {
	for _, e := range fs.epochs {
		if e.src > 0 {
			to = append(to, float64(e.src))
		}
	}
	return to
}

// peakAndBaseline returns the peak per-epoch source count, the flow's quiet
// baseline — the 25th percentile of its recorded epoch rates — and how many
// epochs were counted, sorting the counts in *scratch. Missing epochs are NOT
// treated as zero-rate silence — ring eviction and fault-delayed telemetry
// also produce gaps, and padding them with zeros fabricates burstiness for
// perfectly steady flows.
func (fs *flowStats) peakAndBaseline(scratch *[]float64) (peak uint32, base float64, counted int) {
	counts := fs.appendCounts((*scratch)[:0])
	*scratch = counts
	if len(counts) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(counts)
	return uint32(counts[len(counts)-1]), counts[len(counts)/4], len(counts)
}

// globalMedianEpochCount is the baseline rate across all flows, used to
// judge burstiness of flows without their own history, sorting the counts
// in *scratch.
func globalMedianEpochCount(stats []flowStats, scratch *[]float64) float64 {
	all := (*scratch)[:0]
	for f := range stats {
		all = stats[f].appendCounts(all)
	}
	*scratch = all
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

// The micro-burst signature's thresholds (§4.4.4).
const (
	// burstFactor: a flow whose peak epoch rate reaches burstFactor times
	// its own quiet baseline is bursting, given at least burstMinEpochs
	// counted epochs to take the baseline from.
	burstFactor    = 3.0
	burstMinEpochs = 3
	// burstPPS is the absolute rate at which a flow qualifies as a burst
	// whatever its baseline (the paper's micro-bursts exceed 1000 pps
	// against ~200 pps background), provided it is new at its sink or its
	// rate reached burstPPSFactor times its baseline.
	burstPPS       = 700
	burstPPSFactor = 2
	// burstFactorNew is the relaxed multiple, against the network-wide
	// median rate, for flows that appeared mid-window and have no quiet
	// history of their own.
	burstFactorNew = 2.5
)

// isBursty applies the micro-burst signature: the flow's peak epoch rate
// rises sharply over its own quiet baseline — or, for a flow that only
// appeared mid-window at its sink (a transient flow with no history of
// its own), over the network-wide median rate with the relaxed factor.
func (a *Analyzer) isBursty(fs *flowStats, window *sinkEpochRange, globalMed float64) bool {
	peak, base, counted := fs.peakAndBaseline(&a.work.counts)
	if base < 1 {
		base = 1
	}
	if counted >= burstMinEpochs && float64(peak) >= burstFactor*base {
		return true
	}
	// Absolute test: the paper defines micro-bursts by sheer rate ("over
	// 1000 pps" against ~200 pps background). It applies to flows that
	// appeared mid-window at their sink (new transient flows — the ring
	// evicts all flows' records chronologically, so a late first record
	// means the flow genuinely did not exist before) and to flows whose
	// rate at least doubled.
	newAtSink := window != nil && len(fs.epochs) > 0 && fs.epochs[0].epoch >= window.min+2
	peakPPS := float64(peak) / a.Cfg.EpochDuration.Seconds()
	if peakPPS >= burstPPS && (newAtSink || float64(peak) >= burstPPSFactor*base) {
		return true
	}
	// Relative fallback against the network-wide median for new flows
	// below the absolute rate floor.
	if newAtSink {
		gm := globalMed
		if gm < 1 {
			gm = 1
		}
		return float64(peak) >= burstFactorNew*gm
	}
	return false
}

// bursting marks the traversing flows that match the micro-burst signature —
// all of them, not only flagged ones: the offending flow may be too new to
// have a calibrated threshold. A burst explains the pattern's congestion or
// overflow loss, so its entry claims the pattern.
func (a *Analyzer) bursting(ev *patternEvidence) bool {
	found := false
	for i := range ev.through {
		fp := &ev.through[i]
		// Every indexed flow has a record at its sink: the range exists.
		window := ev.ix.sinkRanges[ev.ix.flowIDs[fp.flow].Sink]
		fp.hit = a.isBursty(&ev.ix.stats[fp.flow], &window, ev.ix.globalMed)
		found = found || fp.hit
	}
	return found
}

// imbalanceRatio: per-path throughput max/min at an ECMP divergence at or
// above this matches the ECMP-imbalance signature (§4.4.4).
const imbalanceRatio = 2.5

// ecmpSplit is one switch whose equal-cost split over a flow's paths
// reaches imbalanceRatio: the ratio of its heaviest branch to its
// lightest, and the child the heaviest leads into.
type ecmpSplit struct {
	sw, heavy topology.NodeID
	ratio     float64
}

// branch is one path hop in imbalancedSplits' prefix tree: the child a
// tree node at depth leads into, and the packets on the way.
type branch struct {
	depth     int
	sw, child topology.NodeID
	pkts      float64
}

// imbalancedSplits walks the prefix tree of the paths, weighted by packet
// counts, and lists the splits that reach imbalanceRatio in (depth, switch)
// order. Never nil.
func (a *Analyzer) imbalancedSplits(paths []pathStat) []ecmpSplit {
	// One branch per path hop, in the working set; sorted, a tree node's
	// children are adjacent and in ascending child order.
	branches := a.work.branches[:0]
	for _, ps := range paths {
		for i := 0; i+1 < len(ps.path); i++ {
			branches = append(branches, branch{i, ps.path[i], ps.path[i+1], ps.pkts})
		}
	}
	a.work.branches = branches
	slices.SortFunc(branches, func(a, b branch) int {
		return cmp.Or(cmp.Compare(a.depth, b.depth), cmp.Compare(a.sw, b.sw), cmp.Compare(a.child, b.child))
	})
	sameNode := func(a, b branch) bool { return a.depth == b.depth && a.sw == b.sw }
	n := 0
	for _, b := range branches {
		if n > 0 && sameNode(branches[n-1], b) && branches[n-1].child == b.child {
			branches[n-1].pkts += b.pkts
			continue
		}
		branches[n] = b
		n++
	}
	branches = branches[:n]

	out := []ecmpSplit{}
	for from, to := 0, 0; from < len(branches); from = to {
		for to = from + 1; to < len(branches) && sameNode(branches[from], branches[to]); to++ {
		}
		// The heavy child is the first maximum in ascending child order.
		heavy, least := branches[from], branches[from].pkts
		for _, b := range branches[from+1 : to] {
			if b.pkts > heavy.pkts {
				heavy = b
			}
			least = min(least, b.pkts)
		}
		if least <= 0 {
			least = 1
		}
		if ratio := heavy.pkts / least; to-from >= 2 && ratio >= imbalanceRatio {
			out = append(out, ecmpSplit{heavy.sw, heavy.child, ratio})
		}
	}
	return out
}

// ecmpDivergence finds the switch whose equal-cost split over this flow's
// paths is most imbalanced AND whose overloaded branch leads directly into
// `next` (the congested pattern head): the overloaded branch must feed the
// congested switch for the blame to transfer upstream (§4.4.4's s9 -> s1
// example). It returns ok=false if no divergence reaches imbalanceRatio.
func (a *Analyzer) ecmpDivergence(fs *flowStats, next topology.NodeID) (topology.NodeID, float64, bool) {
	if fs.splits == nil {
		fs.splits = a.imbalancedSplits(fs.paths)
	}
	var bestSw topology.NodeID
	var bestRatio float64
	found := false
	for _, sp := range fs.splits {
		if sp.heavy == next && (!found || sp.ratio > bestRatio) {
			bestSw, bestRatio, found = sp.sw, sp.ratio, true
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

// patternLevel is the level a pattern is blamed at: a link is one egress
// port, anything else a switch.
func patternLevel(sub []topology.NodeID) Level {
	if len(sub) == 2 {
		return LevelPort
	}
	return LevelSwitch
}

// The latency pipeline's noise floor and the queue-buildup signatures'
// thresholds (process-rate and ECMP-imbalance, §4.4.4).
const (
	// minAbnormalRecords is the least number of over-threshold telemetry
	// records required before the latency pipeline reports culprits;
	// below it the anomaly is treated as transient noise.
	minAbnormalRecords = 4
	// A pattern is congested when the median total queue depth of its
	// flows' abnormal records reaches both queueCongested and
	// congestionFactor times the normal records' median depth (total
	// queue depth sums over hops, so an absolute threshold alone misfires
	// on long paths).
	queueCongested   = 8
	congestionFactor = 2.5
)

// congested pools the traversing flows' abnormal queue depths: the pattern
// is congested when their median reaches both queueCongested and
// congestionFactor times the normal baseline.
func (a *Analyzer) congested(ev *patternEvidence) bool {
	if !ev.congestionKnown {
		ev.congestionKnown = true
		d := ev.depths[:0]
		for _, fp := range ev.through {
			d = append(d, ev.ix.stats[fp.flow].abnormalQueueDepths...)
		}
		slices.Sort(d)
		ev.depths = d
		ev.congested = len(d) > 0 && d[len(d)/2] >= queueCongested && d[len(d)/2] >= congestionFactor*ev.baseQ
	}
	return ev.congested
}

// imbalanced is the ECMP-imbalance signature: a congested pattern behind an
// upstream divergence. A single aggregated flow with few subflows is
// naturally lumpy over its equal-cost paths, so a divergence switch is
// blamed only when at least two flows vote for it; the heaviest vote wins.
func (a *Analyzer) imbalanced(ev *patternEvidence) bool {
	if !a.congested(ev) {
		return false
	}
	if !ev.voteKnown {
		ev.voteKnown = true
		var votes []swSum
		for _, fp := range ev.through {
			if u, ok := a.ecmpUpstream(&ev.ix.stats[fp.flow], ev.sp.sub); ok {
				var v *swSum
				votes, v = sumFor(votes, u)
				v.flows++
				v.pkts += fp.pkts
			}
		}
		best := 0.0
		for _, v := range votes {
			if v.flows >= 2 && v.pkts > best {
				ev.up, ev.voted, best = v.sw, true, v.pkts
			}
		}
	}
	return ev.voted
}

// analyzeLatency is the high-latency diagnosis path (§4.4.1-4.4.4): the
// over-threshold records form the abnormal set.
func (a *Analyzer) analyzeLatency(ix *index) []Culprit {
	// Noise floor: too few over-threshold records means a transient blip,
	// not a localizable incident.
	if a.Thr != nil && ix.overRecords < minAbnormalRecords {
		return nil
	}
	patterns, _ := a.minePatterns(ix, byThreshold)
	if len(patterns) == 0 {
		return nil
	}
	a.signatureData(ix)

	// Baseline queue depth from records classified normal: the congestion
	// signature requires abnormal depth to stand out against it.
	ev := &a.work.pattern
	ev.ix, ev.baseQ, ev.depths = ix, 1, ev.depths[:0]
	for i := range ix.records {
		if !ix.over[i] {
			ev.depths = append(ev.depths, float64(ix.records[i].TotalQueueDepth))
		}
	}
	if d := ev.depths; len(d) > 0 {
		slices.Sort(d)
		ev.baseQ = max(ev.baseQ, d[len(d)/2])
	}
	// Alg. 3: the latency chain assigns each pattern a flow crosses a cause.
	culprits := a.work.culprits[:0]
	for _, sp := range patterns {
		if sp.score > 0 && ev.of(sp) > 0 {
			culprits = a.walk(latencyChain, ev, culprits)
		}
	}
	a.work.culprits = culprits
	return rank(a.work.mergeCulprits(culprits))
}

// analyzeDrop is the separate drop-diagnosis logic (§4.4.4 "Drop"): the
// affected flows (dropAffectedFlows of the index) form the abnormal set, a
// second SBFL instance ranks the shared locations, and the drop chain
// assigns their causes.
func (a *Analyzer) analyzeDrop(ix *index, affected []bool) []Culprit {
	patterns, abnormalPkts := a.minePatterns(ix, byFlow(affected))
	if len(patterns) > 0 {
		a.signatureData(ix)
	}
	ev := &a.work.pattern
	ev.ix, ev.affected, ev.abnormalPkts = ix, affected, abnormalPkts
	culprits := a.work.culprits[:0]
	for _, sp := range patterns {
		if sp.score > 0 {
			ev.of(sp)
			culprits = a.walk(dropChain, ev, culprits)
		}
	}
	a.work.culprits = culprits
	return rank(a.work.mergeCulprits(culprits))
}

// mergeCulprits applies §4.4.4's merge rules: repeated flow-level causes
// keep their maximum score; other repeated causes sum; and port-level
// causes of the same type on multiple ports of one switch collapse into a
// switch-level cause. The list it returns is new; its index and port
// groups are w's.
func (w *workingSet) mergeCulprits(cs []Culprit) []Culprit {
	if w.merge == nil {
		w.merge = make(map[mergeKey]int)
	}
	at := w.merge
	clear(at)
	merged := make([]Culprit, 0, len(cs)) // in first-appearance order
	for _, c := range cs {
		k := keyOf(c)
		i, ok := at[k]
		switch {
		case !ok:
			at[k] = len(merged)
			merged = append(merged, c)
		case c.Level != LevelFlow:
			merged[i].Score += c.Score
		case c.Score > merged[i].Score:
			merged[i].Score, merged[i].Location = c.Score, c.Location
		}
	}

	// Port-level collapse: same cause on >= 2 ports of one switch becomes
	// one switch-level culprit with summed score. Sorted by (cause, switch,
	// index), a strict order, each group's ports are adjacent in index order.
	ports, collapsed := w.ports[:0], slices.Grow(w.collapsed[:0], len(merged))[:len(merged)]
	for i, m := range merged {
		collapsed[i] = false
		if m.Level == LevelPort && len(m.Location) >= 1 {
			ports = append(ports, i)
		}
	}
	w.ports, w.collapsed = ports, collapsed
	group := func(i int) (Cause, topology.NodeID) { return merged[i].Cause, merged[i].Location[0] }
	slices.SortFunc(ports, func(i, j int) int {
		ci, si := group(i)
		cj, sj := group(j)
		return cmp.Or(cmp.Compare(ci, cj), cmp.Compare(si, sj), cmp.Compare(i, j))
	})
	var extra []Culprit
	for from, to := 0, 0; from < len(ports); from = to {
		cause, sw := group(ports[from])
		for to = from + 1; to < len(ports) && merged[ports[to]].Cause == cause && merged[ports[to]].Location[0] == sw; to++ {
		}
		if to-from < 2 {
			continue
		}
		var sum float64
		for _, i := range ports[from:to] {
			sum += merged[i].Score
			collapsed[i] = true
		}
		extra = append(extra, Culprit{
			Cause:    cause,
			Level:    LevelSwitch,
			Location: []topology.NodeID{sw},
			Score:    sum,
		})
	}
	if len(extra) == 0 {
		return merged
	}
	// The collapse can mint a switch-level culprit that duplicates an
	// existing one: fold what is left and what was minted, exact duplicates
	// summing, first-appearance order kept.
	var out Merger
	for i, c := range merged {
		if !collapsed[i] {
			out.fold(c)
		}
	}
	for _, c := range extra {
		out.fold(c)
	}
	return out.cs
}

// MergeRanked folds the culprit lists of several diagnoses of the same
// incident into one ranked list (an operator reviews the accumulated
// evidence): a Merger fed every list in order, sized for all of them.
func MergeRanked(lists [][]Culprit) []Culprit {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	m := Merger{index: make(map[mergeKey]int, n), cs: make([]Culprit, 0, n)}
	for _, l := range lists {
		m.Add(l)
	}
	return rank(m.cs)
}

// mergeKey is a culprit's identity under the cross-diagnosis merge: cause,
// level, and the flow (flow-level culprits, whose identity subsumes their
// location) or the location (everything else). A location of up to two
// switches — every one MaxPatternLen 2 produces — is its length and its
// switches; a longer one is its formatted path.
type mergeKey struct {
	cause Cause
	level Level
	n     uint8
	loc   [2]topology.NodeID
	long  string
	flow  dataplane.FlowID
}

func keyOf(c Culprit) mergeKey {
	k := mergeKey{cause: c.Cause, level: c.Level}
	switch {
	case c.Level == LevelFlow:
		k.flow = c.Flow
	case len(c.Location) <= len(k.loc):
		k.n = uint8(copy(k.loc[:], c.Location))
	default:
		k.long = topology.Path(c.Location).String()
	}
	return k
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
	k := keyOf(c)
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
