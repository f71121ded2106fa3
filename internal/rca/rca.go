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
	"fmt"
	"slices"
	"sort"

	"mars/internal/controlplane"
	"mars/internal/dataplane"
	"mars/internal/fsm"
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
// next one.
type Analyzer struct {
	Cfg   Config
	Paths *pathid.Table
	Thr   Thresholds

	work workingSet
}

// workingSet is the memory analyses build their index (index, estimate),
// mining database (minePatterns) and patterns' evidence (walk) in; each slice grows only when an analysis
// is larger than any before it. It is working memory, not a cache: an
// analysis writes every element before it reads it, so nothing passes from
// one analysis to the next (TestAnalyzerReuseCarriesNothing).
type workingSet struct {
	flowOf, pathOf []int32
	over           []bool
	numbers        map[dataplane.FlowID]int32
	thresholds     []netsim.Time
	flowIDs        []dataplane.FlowID
	set            firsts
	paths          []pathStat
	db             fsm.Dataset
	weights        []int
	slab           fsm.Sequence
	pattern        patternEvidence
	counts         []float64 // isBursty's epoch counts, one flow at a time
	branches       []branch  // imbalancedSplits' prefix tree, one flow at a time
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
	return &Analyzer{Cfg: cfg, Paths: paths, Thr: thr, work: workingSet{numbers: make(map[dataplane.FlowID]int32)}}
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
	type agg struct {
		src, sink uint64
		gap       bool
	}
	byFlow, counted := make([]agg, len(ix.flowIDs)), ix.emptySet()
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
		if counted.of(ix.flowOf[i], r.Epoch, i) == i {
			f.src += uint64(r.SourceCount)
			f.sink += uint64(r.SinkCount)
		}
	}
	affected := make([]bool, len(byFlow))
	for n, f := range byFlow {
		affected[n] = f.gap || f.src > f.sink+uint64(a.dropMargin(uint32(min(f.src, 1<<31))))
	}
	return affected
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
	set         *firsts    // dropAffectedFlows' epochs, then estimate's PathIDs
	pathOf      []int32    // each record's row in paths; nil until estimate
	paths       []pathStat // in first-record order
	hops        int        // the summed length of paths' paths

	stats      []flowStats // by flow number
	flows      []int32     // the flow numbers in flowLess order
	sinkRanges map[topology.NodeID]*sinkEpochRange
	globalMed  float64
}

// index numbers the flows of the records and classifies each record
// against its flow's dynamic threshold, asked for once per flow. Its
// slices are valid until the Analyzer's next index.
func (a *Analyzer) index(records []dataplane.RTRecord, now netsim.Time) *index {
	w, n := &a.work, len(records)
	ix := &index{
		records: records,
		now:     now,
		flowOf:  slices.Grow(w.flowOf[:0], n)[:n],
		over:    slices.Grow(w.over[:0], n)[:n],
		flowIDs: w.flowIDs[:0],
	}
	clear(ix.over)
	numbers, thresholds := w.numbers, w.thresholds[:0]
	clear(numbers)
	for i := range records {
		r := &records[i]
		f, ok := numbers[r.Flow]
		if !ok {
			f = int32(len(ix.flowIDs))
			numbers[r.Flow] = f
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
	w.set.head = slices.Grow(w.set.head[:0], len(ix.flowIDs))[:len(ix.flowIDs)]
	w.set.next, w.set.key = slices.Grow(w.set.next[:0], n)[:n], slices.Grow(w.set.key[:0], n)[:n]
	ix.set = &w.set
	return ix
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
	decoded := ix.emptySet()
	for i := range ix.records {
		r := &ix.records[i]
		if j := decoded.of(ix.flowOf[i], uint32(r.PathID), i); j != i {
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

// firsts is a set of (flow, key) pairs over one index's records that
// remembers which record first carried each pair, in O(records) memory
// whatever the keys: per flow, a chain of those first records (head and
// next hold a record index + 1; 0 ends a chain). Honest telemetry gives a
// flow a handful of keys — W epochs, (k/2)^2 paths — so a lookup is a few
// compares. Pairs past maxChain in one flow go to a map instead, so a
// corrupt or hostile frame cannot make the walk quadratic.
type firsts struct {
	head, next []int32          // by flow number; by record
	key        []uint32         // by record
	spill      map[uint64]int32 // flow<<32 | key -> record
}

const maxChain = 64

// emptySet returns the index's one firsts, emptied: its uses do not overlap.
func (ix *index) emptySet() *firsts {
	clear(ix.set.head)
	ix.set.spill = nil
	return ix.set
}

// of returns the record that first carried (f, key): i, now added, if none had.
func (s *firsts) of(f int32, key uint32, i int) int {
	j, hops := s.head[f], 0
	for ; j > 0 && hops < maxChain; j, hops = s.next[j-1], hops+1 {
		if s.key[j-1] == key {
			return int(j - 1)
		}
	}
	if hops < maxChain {
		s.key[i], s.next[i], s.head[f] = key, s.head[f], int32(i+1)
		return i
	}
	pair := uint64(f)<<32 | uint64(key)
	if j, ok := s.spill[pair]; ok {
		return int(j)
	}
	if s.spill == nil {
		s.spill = make(map[uint64]int32)
	}
	s.spill[pair] = int32(i)
	return i
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
	out := make([]scoredPattern, 0, len(patterns))
	for _, pat := range patterns {
		sub := make([]topology.NodeID, len(pat.Items))
		for i, it := range pat.Items {
			sub[i] = topology.NodeID(it)
		}
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		// Longer (more specific) patterns first among ties, then by ID.
		if len(out[i].sub) != len(out[j].sub) {
			return len(out[i].sub) > len(out[j].sub)
		}
		return lessPath(out[i].sub, out[j].sub)
	})
	return out, float64(failPkts)
}

type scoredPattern struct {
	sub   []topology.NodeID
	score float64
	npf   float64 // abnormal packets covering the pattern
}

func lessPath(a, b []topology.NodeID) bool { return slices.Compare(a, b) < 0 }

// rank finalizes a culprit list: sort by score descending with
// deterministic tie-breaking.
func rank(cs []Culprit) []Culprit {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Score != cs[j].Score {
			return cs[i].Score > cs[j].Score
		}
		if len(cs[i].Location) != len(cs[j].Location) {
			return len(cs[i].Location) > len(cs[j].Location)
		}
		if c := slices.Compare(cs[i].Location, cs[j].Location); c != 0 {
			return c < 0
		}
		return cs[i].Cause < cs[j].Cause
	})
	return cs
}
