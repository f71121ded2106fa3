// Package rca implements MARS's root cause analysis (§4.4): it turns a body
// of Ring Table records — a collection a data-plane notification started,
// or a stream window — into a ranked list of culprits with causes. One core
// (AnalyzeWindow) analyses both; what started the collection does not
// reach it.
//
// Pipeline (§4.4's four parts):
//  1. classify the sampled telemetry into abnormal/normal sets with the
//     reservoir thresholds (one per flow; flows are numbered once per
//     analysis) and, for a view with an abnormal set to mine, estimate
//     actual traffic (Alg. 2) into one row per (flow, path), decoding each
//     PathID once. A record with PathCount = n adds weight n to its row,
//     never n packets: supports, spectra and packet shares below are sums of
//     weights, equal to the counts over the expanded packets whatever
//     PathCount is;
//  2. mine frequent sub-sequences (switches and links) of the abnormal
//     paths with FSM (§4.4.2), one weighted sequence per row;
//  3. score each pattern with relative-risk SBFL (§4.4.3, Eq. 1);
//  4. assign a cause per culprit by signature matching over the diagnosis
//     data, score by Alg. 3, and merge (§4.4.4).
package rca

import (
	"cmp"
	"fmt"
	"slices"

	"mars/internal/controlplane"
	"mars/internal/dataplane"
	"mars/internal/fsm"
	"mars/internal/hashidx"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/sbfl"
	"mars/internal/topology"
)

// Cause is the diagnosed fault class of a culprit.
type Cause uint8

const (
	// CauseMicroBurst is the flow-level burst cause.
	CauseMicroBurst Cause = iota
	// CauseECMPImbalance is the switch-level uneven-split cause.
	CauseECMPImbalance
	// CauseProcessRate is the port/switch-level slow-drain cause.
	CauseProcessRate
	// CauseDelay is the port/switch-level out-of-queue latency cause.
	CauseDelay
	// CauseDrop is the port/switch-level loss cause.
	CauseDrop
	// CauseLinkDegrade is the compound gray cause: a degraded link whose
	// ECMP reaction produces the congestion the paper's signature blames
	// on the divergence switch. Only emitted with Config.CompoundCauses.
	CauseLinkDegrade
	// CauseLinkFlap is intermittent loss: drop evidence that alternates
	// with clean epochs. Only emitted with Config.CompoundCauses.
	CauseLinkFlap
	// CauseSwitchReboot is a node-level outage: loss fanning across many
	// neighbors of one switch. Only emitted with Config.CompoundCauses.
	CauseSwitchReboot
)

func (c Cause) String() string {
	switch c {
	case CauseMicroBurst:
		return "micro-burst"
	case CauseECMPImbalance:
		return "ecmp-imbalance"
	case CauseProcessRate:
		return "process-rate"
	case CauseDelay:
		return "delay"
	case CauseDrop:
		return "drop"
	case CauseLinkDegrade:
		return "link-degrade"
	case CauseLinkFlap:
		return "link-flap"
	case CauseSwitchReboot:
		return "switch-reboot"
	default:
		return fmt.Sprintf("Cause(%d)", uint8(c))
	}
}

// Level is the granularity of a culprit.
type Level uint8

const (
	// LevelFlow blames a flow (micro-burst).
	LevelFlow Level = iota
	// LevelSwitch blames a switch.
	LevelSwitch
	// LevelPort blames a specific link/egress port.
	LevelPort
)

func (l Level) String() string {
	switch l {
	case LevelFlow:
		return "flow"
	case LevelSwitch:
		return "switch"
	case LevelPort:
		return "port"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Culprit is one entry of the ranked output list.
type Culprit struct {
	Cause Cause
	Level Level
	// Location is the blamed switch sequence: one switch, or two for a
	// link/port-level culprit (egress of Location[0] toward Location[1]).
	Location []topology.NodeID
	// Flow is set for flow-level culprits.
	Flow dataplane.FlowID
	// Score orders the list (higher = more suspicious).
	Score float64
	// Confidence is the diagnosis-data coverage behind this culprit: 1
	// when every contacted sink answered the collection, lower when the
	// diagnosis was partial (degraded control channel). Merging across
	// diagnoses keeps the best coverage that supported the culprit.
	Confidence float64
}

func (c Culprit) String() string {
	loc := topology.Path(c.Location).String()
	conf := ""
	if c.Confidence > 0 && c.Confidence < 1 {
		conf = fmt.Sprintf(" conf=%.2f", c.Confidence)
	}
	if c.Level == LevelFlow {
		return fmt.Sprintf("%.3f %s %v at %s%s", c.Score, c.Cause, c.Flow, loc, conf)
	}
	return fmt.Sprintf("%.3f %s (%s) at %s%s", c.Score, c.Cause, c.Level, loc, conf)
}

// ContainsSwitch reports whether the culprit blames sw.
func (c Culprit) ContainsSwitch(sw topology.NodeID) bool { return slices.Contains(c.Location, sw) }

// Config tunes the analyzer.
type Config struct {
	// Miner is the FSM algorithm (PrefixSpan by default). The database it
	// is handed is the Analyzer's working memory: Mine must not keep it.
	Miner fsm.Miner
	// MinRelSupport is the FSM relative support floor over the abnormal set.
	MinRelSupport float64
	// MaxPatternLen caps culprit patterns (2 = switches and links).
	MaxPatternLen int
	// Formula is the SBFL scorer (relative risk by default).
	Formula sbfl.Formula
	// EpochDuration converts per-epoch counts to rates for the absolute
	// burst test: the telemetry epoch of whoever minted the records'
	// epoch IDs (dataplane.EpochDuration unless a replay says otherwise).
	EpochDuration netsim.Time
	// RecentWindow bounds how far back drop evidence is trusted: a latency
	// fault's onset shifts packets across an epoch boundary once, which
	// looks like a count mismatch; only sustained (recent) mismatches
	// drive the drop pipeline.
	RecentWindow netsim.Time
	// CompoundCauses enables the gray-failure signatures: link-degrade
	// disambiguation behind ECMP divergence, link-flap intermittency, and
	// switch-reboot fan-out. It admits the signature chains' compound
	// entries and nothing else: which views run does not depend on it. Off
	// by default so the paper's five-signature behavior is the baseline;
	// the gray experiment flips it on for its compound mode.
	CompoundCauses bool
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Miner:         fsm.NewPrefixSpan(),
		MinRelSupport: 0.3,
		MaxPatternLen: 2,
		Formula:       sbfl.RelativeRisk,
		EpochDuration: dataplane.EpochDuration,
		RecentWindow:  400 * netsim.Millisecond,
	}
}

// Thresholds supplies the per-flow dynamic thresholds used to classify
// estimated packets (the controller's reservoirs implement this). An
// analysis asks once per flow, in first-appearance order: an implementation
// must answer the same for a flow throughout one analysis.
type Thresholds interface {
	ThresholdOf(flow dataplane.FlowID) netsim.Time
}

// ThresholdFunc satisfies Thresholds with a plain function.
type ThresholdFunc func(flow dataplane.FlowID) netsim.Time

// ThresholdOf implements Thresholds.
func (f ThresholdFunc) ThresholdOf(flow dataplane.FlowID) netsim.Time { return f(flow) }

// Analyzer turns diagnoses into ranked culprit lists. It is not safe for
// concurrent use: each analysis works in memory the Analyzer keeps for the
// next one. Thr may change between analyses: nothing passes from one to the
// next, so one Analyzer can serve several threshold sources in turn.
type Analyzer struct {
	Cfg   Config
	Paths *pathid.Table
	Thr   Thresholds

	work workingSet
}

// workingSet is the memory analyses build their index (index, estimate),
// drop sums (dropAffectedFlows), mining database and scored patterns
// (minePatterns), signature tables (signatureData) and patterns' evidence
// and culprits (walk) in; each slice grows only when an analysis is larger
// than any before it. It is working memory, not a cache: an
// analysis writes every element before it reads it, so nothing passes from
// one analysis to the next (TestAnalyzerReuseCarriesNothing).
type workingSet struct {
	ix             index
	flowOf, pathOf []int32
	over           []bool
	seen           firstSeen
	thresholds     []netsim.Time
	flowIDs        []dataplane.FlowID
	paths          []pathStat
	db             fsm.Dataset
	weights        []int
	slab           fsm.Sequence
	pattern        patternEvidence
	counts         []float64 // a median's epoch counts: every flow's, then one flow's at a time
	branches       []branch  // imbalancedSplits' prefix tree, one flow at a time
	drops          []flowDrop
	affected       []bool
	scored         []scoredPattern // a view's, with their switches in subs
	subs           []topology.NodeID
	culprits       []Culprit // a view's, before they merge
	merge          map[mergeKey]int
	ports          []int // mergeCulprits' port culprits, by index
	collapsed      []bool
	stats          []flowStats
	flows, at      []int32
	rows           []epochStat
	flowPaths      []pathStat
	sinkRanges     map[topology.NodeID]sinkEpochRange
}

// New creates an analyzer. paths decompresses PathIDs; thr classifies.
func New(cfg Config, paths *pathid.Table, thr Thresholds) *Analyzer {
	if cfg.Miner == nil {
		cfg.Miner = fsm.NewPrefixSpan()
	}
	if cfg.Formula == nil {
		cfg.Formula = sbfl.RelativeRisk
	}
	if cfg.EpochDuration <= 0 {
		cfg.EpochDuration = dataplane.EpochDuration
	}
	w := workingSet{
		seen:       firstSeen{h: hashidx.NewHasher()},
		sinkRanges: make(map[topology.NodeID]sinkEpochRange),
	}
	return &Analyzer{Cfg: cfg, Paths: paths, Thr: thr, work: w}
}

// AnalyzeWindow is the RCA core: it turns one body of records, as of now,
// into a ranked culprit list. Both views run on the same evidence (§4.4.4):
// the latency view's findings stand, and sustained loss among the records
// (dropAffectedFlows) runs the separate drop view, whose culprits are added
// to the latency ones — or supply the list when latency found nothing —
// under the cross-diagnosis merge rules. No notification takes part: a
// switch's single-epoch count comparison false-fires on latency
// displacement, so only sustained deficits in the records count as loss.
//
// coverage in [0,1] is the share of the evidence that reached the analysis
// — a collection's sink coverage, or a stream window's record coverage
// after its bounded-memory sampler. It scales every culprit's Confidence,
// so the cross-diagnosis merge keeps the best-covered support for each
// culprit.
func (a *Analyzer) AnalyzeWindow(records []dataplane.RTRecord, now netsim.Time, coverage float64) []Culprit {
	ix := a.index(records, now)
	out := a.analyzeLatency(ix)
	if affected := a.dropAffectedFlows(ix); slices.Contains(affected, true) {
		// Evidence without a mineable pattern keeps the latency view.
		if drop := a.analyzeDrop(ix, affected); len(out) == 0 {
			out = drop
		} else if len(drop) > 0 {
			out = MergeRanked([][]Culprit{out, drop})
		}
	}
	return withConfidence(out, min(max(coverage, 0), 1))
}

// Analyze produces the ranked culprit list for one collected diagnosis: its
// records as of the collection time, with the collection's sink coverage
// and the codec's reconstruction confidence as the coverage, so a partial
// collection or a probabilistic encoding weakens every culprit's Confidence
// without changing the ranking. The notification only started the
// collection; its kind does not reach the analysis.
func (a *Analyzer) Analyze(d controlplane.Diagnosis) []Culprit {
	return a.AnalyzeWindow(d.Records, d.Time, d.Coverage()*d.ReconstructionConfidence())
}

// withConfidence stamps the evidence coverage on every culprit.
func withConfidence(out []Culprit, conf float64) []Culprit {
	for i := range out {
		out[i].Confidence = conf
	}
	return out
}

// dropRelMargin is the relative half of the drop margin: one packet in
// dropRelMargin of an epoch's source count may be in flight across the
// epoch boundary without counting as loss.
const dropRelMargin = 8

// dropMargin is the count-mismatch tolerance: the data plane's own drop
// trigger (§4.2.2) as the absolute floor, plus a relative allowance for
// epoch-boundary in-flight packets.
func (a *Analyzer) dropMargin(sourceCount uint32) uint32 {
	return max(dataplane.DropCountThreshold, sourceCount/dropRelMargin)
}

// dropAffectedFlows identifies, by flow number, flows with genuine loss in
// the recent window (RecentWindow back from the evidence's time), which
// re-verifies the data plane's jumpy per-epoch trigger (a switch cannot
// afford history). Per-epoch count mismatches are summed per flow: a sudden
// latency shift displaces packets across one epoch boundary (deficit one
// epoch, surplus the next, cancelling), while real loss accumulates. Epoch
// gaps (missing telemetry packets) count as direct evidence.
func (a *Analyzer) dropAffectedFlows(ix *index) []bool {
	w, n := &a.work, len(ix.flowIDs)
	byFlow := slices.Grow(w.drops[:0], n)[:n]
	clear(byFlow)
	w.seen.reset(len(ix.records))
	for i := range ix.records {
		r := &ix.records[i]
		if a.Cfg.RecentWindow > 0 && r.Arrival < ix.now-a.Cfg.RecentWindow {
			continue
		}
		f := &byFlow[ix.flowOf[i]]
		if r.EpochGap > 0 {
			f.gap = true
		}
		// A flow can have several records per epoch (one per path); counts
		// are flow-level, so take each epoch once.
		fn, e := ix.flowOf[i], r.Epoch
		if w.seen.of(uint64(fn)<<32|uint64(e), int32(i), func(j int32) bool {
			return ix.flowOf[j] == fn && ix.records[j].Epoch == e
		}) == int32(i) {
			f.src += uint64(r.SourceCount)
			f.sink += uint64(r.SinkCount)
		}
	}
	affected := slices.Grow(w.affected[:0], n)[:n]
	for n, f := range byFlow {
		affected[n] = f.gap || f.src > f.sink+uint64(a.dropMargin(uint32(min(f.src, 1<<31))))
	}
	w.drops, w.affected = byFlow, affected
	return affected
}

// flowDrop is one flow's summed epoch counts and whether it has a gap.
type flowDrop struct {
	src, sink uint64
	gap       bool
}

// pathStat is one (flow, path) row of the evidence: every record of one flow
// with one PathID, folded. A row, not a record, is the unit of mining —
// supports and spectra are sums of integer weights, so they depend only on
// the distinct paths.
type pathStat struct {
	flow int32
	path topology.Path // nil when the PathID does not decode
	// over and under are Alg. 2's estimate of the row's traffic, split by
	// its records' over-threshold bit: each record stands for
	// clamp(PathCount, 1, maxEstimatePerRecord) packets along path.
	over, under int
	// pkts is the uncapped packets across the row's records; abnormal is
	// the part of it on over-threshold records. The link-degrade signature
	// uses the latter to find degradation evidence on an ECMP branch that
	// carries little traffic.
	pkts, abnormal float64
}

// index is what one analysis derives from its records and both views read,
// in three layers, each built at most once: flows numbered and records
// classified (index, always); the (flow, path) rows (estimate, for the first
// view with an abnormal set to mine: a quiet window decodes nothing); the
// (flow, epoch) rows and the per-flow summaries the signatures match against
// (signatureData, for the first view with patterns to explain). The first
// two layers' slices are the Analyzer's workingSet.
type index struct {
	records []dataplane.RTRecord
	now     netsim.Time // the trusted drop-evidence window ends here
	// flowOf, over and pathOf run parallel to records. flowOf numbers the
	// flows densely in first-record order, flowIDs maps the numbers back;
	// over marks records later than their flow's threshold.
	flowOf      []int32
	flowIDs     []dataplane.FlowID
	over        []bool
	overRecords int
	pathOf      []int32    // each record's row in paths; nil until estimate
	paths       []pathStat // in first-record order
	hops        int        // the summed length of paths' paths

	stats      []flowStats // by flow number
	flows      []int32     // the flow numbers in (Src, Sink) order
	sinkRanges map[topology.NodeID]sinkEpochRange
	globalMed  float64
}

// index numbers the flows of the records and classifies each record
// against its flow's dynamic threshold, asked for once per flow. It and its
// slices are valid until the Analyzer's next index.
func (a *Analyzer) index(records []dataplane.RTRecord, now netsim.Time) *index {
	w, n := &a.work, len(records)
	ix := &w.ix
	*ix = index{
		records: records,
		now:     now,
		flowOf:  slices.Grow(w.flowOf[:0], n)[:n],
		over:    slices.Grow(w.over[:0], n)[:n],
		flowIDs: w.flowIDs[:0],
	}
	clear(ix.over)
	thresholds := w.thresholds[:0]
	w.seen.reset(n)
	for i := range records {
		r := &records[i]
		next := int32(len(ix.flowIDs))
		f := w.seen.of(r.Flow.Key(), next, func(g int32) bool { return ix.flowIDs[g] == r.Flow })
		if f == next {
			ix.flowIDs = append(ix.flowIDs, r.Flow)
			if a.Thr != nil {
				thresholds = append(thresholds, a.Thr.ThresholdOf(r.Flow))
			}
		}
		ix.flowOf[i] = f
		if a.Thr != nil && r.Latency > thresholds[f] {
			ix.over[i] = true
			ix.overRecords++
		}
	}
	w.flowOf, w.over, w.flowIDs, w.thresholds = ix.flowOf, ix.over, ix.flowIDs, thresholds
	return ix
}

// firstSeen remembers which value first came with each key: open-addressed
// slots of value + 1 (0 is empty), a power of two long and at most half
// full, under the Analyzer's keyed hash. A slot holds no key: the caller
// tells a value that came with the key from one that only shares its probe
// run, against storage it already has. An analysis uses the one table
// three times, emptied in between, and the uses never overlap: index's flow
// numbering, dropAffectedFlows' (flow, epoch) set and estimate's
// (flow, PathID) set. Sized by the records, it is O(records) memory for
// any key values; keyed, it keeps keys off the wire from piling into one
// probe run (TestFirstSeenSpreadsCollidingKeys).
type firstSeen struct {
	h     hashidx.Hasher
	slots []int32
}

// reset empties the table, with room for n keys.
func (t *firstSeen) reset(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	t.slots = slices.Grow(t.slots[:0], size)[:size]
	clear(t.slots)
}

// of returns the value that first came with key, as same tells a value
// that did from one that only shares its probe run: v, now added, if none
// had.
func (t *firstSeen) of(key uint64, v int32, same func(w int32) bool) int32 {
	mask := uint64(len(t.slots) - 1)
	for s := t.h.Hash(key) & mask; ; s = (s + 1) & mask {
		switch w := t.slots[s] - 1; {
		case w < 0:
			t.slots[s] = v + 1
			return v
		case same(w):
			return w
		}
	}
}

// maxEstimatePerRecord caps the weight Alg. 2 gives one telemetry record
// (the packets it stands for), so a single heavy record cannot outvote the
// rest of the evidence. Analysis cost does not depend on it.
const maxEstimatePerRecord = 30

// estimate folds the records into the (flow, path) rows with the traffic
// they stand for (Alg. 2), once per index, decoding each (flow, PathID) on
// the first record with it. A record's weight is capped before it is summed.
func (a *Analyzer) estimate(ix *index) {
	if ix.pathOf != nil {
		return
	}
	w := &a.work
	ix.pathOf, ix.paths = slices.Grow(w.pathOf[:0], len(ix.records))[:len(ix.records)], w.paths[:0]
	w.seen.reset(len(ix.records))
	for i := range ix.records {
		r := &ix.records[i]
		fn, id := ix.flowOf[i], r.PathID
		if j := w.seen.of(uint64(fn)<<32|uint64(id), int32(i), func(j int32) bool {
			return ix.flowOf[j] == fn && ix.records[j].PathID == id
		}); j != int32(i) {
			ix.pathOf[i] = ix.pathOf[j]
		} else {
			path, _ := a.Paths.Lookup(r.Flow.Sink, r.PathID)
			ix.pathOf[i] = int32(len(ix.paths))
			ix.paths = append(ix.paths, pathStat{flow: ix.flowOf[i], path: path})
			ix.hops += len(path)
		}
		row := &ix.paths[ix.pathOf[i]]
		if row.path == nil {
			continue
		}
		// At least the telemetry packet itself.
		n := min(max(int(r.PathCount), 1), maxEstimatePerRecord)
		row.pkts += float64(r.PathCount) + 1
		if ix.over[i] {
			row.over += n
			row.abnormal += float64(r.PathCount) + 1
		} else {
			row.under += n
		}
	}
	w.pathOf, w.paths = ix.pathOf, ix.paths
}

// split is a view's reading of one row: the estimated packets of it that
// belong to the view's abnormal set, and the rest.
type split func(row *pathStat) (fail, pass int)

// byThreshold is the latency view's split: over-threshold traffic fails.
func byThreshold(row *pathStat) (fail, pass int) { return row.over, row.under }

// byFlow is the drop view's split: all traffic of an affected flow fails.
func byFlow(affected []bool) split {
	return func(row *pathStat) (fail, pass int) {
		if affected[row.flow] {
			return row.over + row.under, 0
		}
		return 0, row.over + row.under
	}
}

// minePatterns runs FSM over the rows with failing traffic — one sequence
// per row, weighted by that traffic — and scores each pattern with SBFL over
// both sets. It also returns the failing set's size in estimated packets.
// (A row whose path did not decode weighs nothing and contains no pattern.)
func (a *Analyzer) minePatterns(ix *index, of split) ([]scoredPattern, float64) {
	a.estimate(ix)
	// The database's sequences are all carved from one slab, sized for every
	// row so that it never moves; all three live in the working set.
	w := &a.work
	db := slices.Grow(w.db[:0], len(ix.paths))
	weights := slices.Grow(w.weights[:0], len(ix.paths))
	slab := slices.Grow(w.slab[:0], ix.hops)
	var failPkts, passPkts int
	for i := range ix.paths {
		row := &ix.paths[i]
		fail, pass := of(row)
		failPkts += fail
		passPkts += pass
		if fail > 0 {
			from := len(slab)
			for _, sw := range row.path {
				slab = append(slab, fsm.Item(sw))
			}
			db = append(db, slab[from:len(slab):len(slab)])
			weights = append(weights, fail)
		}
	}
	w.db, w.weights, w.slab = db, weights, slab
	if len(db) == 0 {
		return nil, 0
	}
	patterns := a.Cfg.Miner.Mine(db, fsm.Params{
		MinRelSupport: a.Cfg.MinRelSupport,
		MaxLen:        a.Cfg.MaxPatternLen,
		Weights:       weights,
	})
	// The culprits copy the switches they keep (walk).
	items := 0
	for _, pat := range patterns {
		items += len(pat.Items)
	}
	out, subs := slices.Grow(w.scored[:0], len(patterns)), slices.Grow(w.subs[:0], items)
	for _, pat := range patterns {
		from := len(subs)
		for _, it := range pat.Items {
			subs = append(subs, topology.NodeID(it))
		}
		sub := subs[from:len(subs):len(subs)]
		// The spectrum in packets: every count is a sum of integer
		// weights, so it equals the count over the expanded packets.
		var npf, nps int
		for i := range ix.paths {
			if row := &ix.paths[i]; row.path.Contains(sub) {
				fail, pass := of(row)
				npf += fail
				nps += pass
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
	w.scored, w.subs = out, subs
	// Longer (more specific) patterns first among equal scores, then by ID:
	// patterns are unique, so every sort yields this one permutation.
	slices.SortFunc(out, func(a, b scoredPattern) int {
		return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(len(b.sub), len(a.sub)), slices.Compare(a.sub, b.sub))
	})
	return out, float64(failPkts)
}

type scoredPattern struct {
	sub   []topology.NodeID
	score float64
	npf   float64 // abnormal packets covering the pattern
}

// rank finalizes a culprit list: sort by score descending with
// deterministic tie-breaking. Culprits of distinct merge identities differ
// in location, cause, level or flow, so every sort yields one permutation.
func rank(cs []Culprit) []Culprit {
	slices.SortFunc(cs, func(a, b Culprit) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(len(b.Location), len(a.Location)), slices.Compare(a.Location, b.Location),
			cmp.Compare(a.Cause, b.Cause), cmp.Compare(a.Level, b.Level), cmp.Compare(a.Flow.Src, b.Flow.Src), cmp.Compare(a.Flow.Sink, b.Flow.Sink))
	})
	return cs
}
