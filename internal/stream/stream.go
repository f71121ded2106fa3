// Package stream is the always-on diagnosis service: it turns the batch
// controlplane+rca pipeline into a continuously-running consumer of sink
// telemetry with bounded per-flow memory and a live metrics surface.
//
// Shape (§ DESIGN.md 14):
//
//	ingest → bounded flow state → sliding-window analysis → merge
//
// Records tap out of the data plane through Program.OnRecord and are
// routed to a per-unit state shard keyed by the sink switch's
// topology.PodPartition unit — the same partition the simulator orders
// events by, which is what makes the stream's output invariant under the
// simulator's hook-owner count: each unit's record sequence reaches
// exactly one owner's tap in deterministic event order.
//
// Memory is O(budget), not O(flows): per-flow latency reservoirs live
// under a hard byte budget with least-recently-active eviction, and each
// epoch's records pass through a PINT-style bounded reservoir sample, so a
// unit retains at most EpochSampleCap records per epoch regardless of how
// many flows terminate there, and allocates only for the records it holds.
//
// Every closed window re-scores through the unchanged rca pipeline —
// mined by the analyzer's configured miner, exactly as a batch diagnosis
// is — and per-unit culprit lists merge under the PR 1 Confidence rules
// (rca.MergeRanked) with the window's sampling coverage as confidence.
// Analysis memory is O(workers), not O(units): each analysis worker owns one
// window buffer and one rca analyzer, and installs a unit's thresholds
// before it scores that unit's window.
package stream

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"mars/internal/dataplane"
	"mars/internal/hashidx"
	"mars/internal/metrics"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
	"mars/internal/reservoir"
	"mars/internal/topology"
)

// Config parameterizes the stream service.
type Config struct {
	// Epoch is the telemetry epoch of the records ingested:
	// dataplane.EpochDuration unless a replay was captured at another.
	Epoch netsim.Time
	// WindowEpochs is the sliding window length W; every finalized epoch
	// closes the window that ends on it (slide of one epoch).
	WindowEpochs int
	// BudgetBytes is the hard per-unit budget for per-flow state. When a
	// new flow would exceed it, the least-recently-active flow is evicted
	// (its threshold falls back to the reservoir default on return). Its
	// floor is one flow: a unit always holds the flow it is ingesting, so
	// New raises a smaller budget, zero included, to one flow's cost.
	BudgetBytes int
	// EpochSampleCap bounds the records a unit retains per epoch; beyond
	// it, Algorithm-R reservoir replacement keeps a uniform sample.
	EpochSampleCap int
	// Workers bounds the per-window analysis parallelism across units.
	// Output is byte-identical for any value (results gather at unit
	// index and merge in unit order). <=1 means inline.
	Workers int
	// Seed drives the per-unit sampling RNG streams.
	Seed int64
	// RCA configures the per-window scorer (its Miner mines every
	// window); RecentWindow and EpochDuration are aligned to the window
	// geometry if left zero.
	RCA rca.Config
	// Reservoir configures the per-flow latency reservoirs.
	Reservoir reservoir.Config
}

// DefaultConfig returns the stream evaluation setup: 100 ms epochs, a
// 4-epoch window, 64 KB of flow state and 128 sampled records per epoch
// per unit.
func DefaultConfig(seed int64) Config {
	return Config{
		Epoch:          dataplane.EpochDuration,
		WindowEpochs:   4,
		BudgetBytes:    64 << 10,
		EpochSampleCap: 128,
		Workers:        1,
		Seed:           seed,
		RCA:            rca.DefaultConfig(),
		Reservoir:      reservoir.DefaultConfig(),
	}
}

// Deterministic byte-accounting constants (documented estimates, not
// unsafe.Sizeof, so the resident-bytes metric is platform-invariant).
const (
	// flowStateOverheadBytes covers the flowState struct, index entry, and
	// reservoir bookkeeping beyond the sample slice.
	flowStateOverheadBytes = 128
	// sampleEntryBytes covers one retained record and its share of the
	// bucket bookkeeping.
	sampleEntryBytes = 160
)

// flowStateBytes is the accounted size of one flow's state.
func flowStateBytes(rc reservoir.Config) int { return rc.Volume*8 + flowStateOverheadBytes }

// WindowResult is one closed window's merged diagnosis.
type WindowResult struct {
	// Start, End are the window's first and last epoch (inclusive).
	Start, End uint32
	// Time is the simulated end of the window.
	Time netsim.Time
	// Culprits is the ranked list merged across units (rca.MergeRanked).
	Culprits []rca.Culprit
	// Sampled, Offered aggregate the window's record sampling across
	// units; Sampled/Offered is the coverage behind the confidences.
	Sampled, Offered int
}

// Service is the streaming diagnosis pipeline. Ingest and CloseEpoch must
// be called from one goroutine (the coordinator); window analysis fans out
// to Workers goroutines internally.
type Service struct {
	cfg   Config
	part  *topology.Partition
	units []*unitState
	// scratch is each analysis worker's memory: worker w's is scratch[w].
	scratch []windowScratch

	reg       *metrics.Registry
	ingested  metrics.Counter
	late      metrics.Counter
	sampled   metrics.Counter
	replaced  metrics.Counter
	rejected  metrics.Counter
	evicted   metrics.Counter
	windows   metrics.Counter
	diagnoses metrics.Counter
	churn     metrics.Counter
	resident  metrics.Gauge
	flowsRes  metrics.Gauge
	lag       metrics.Gauge

	// finalizedThrough is the newest sealed epoch (records for it or
	// older are late); -1 before any.
	finalizedThrough int64
	// maxEpoch is the newest epoch observed on any record.
	maxEpoch int64
	// lastAnalyzed is the end epoch of the newest closed window; -1
	// before any.
	lastAnalyzed int64

	results []WindowResult
	// merged accumulates every closed window's per-unit culprit lists;
	// the lists themselves are not retained.
	merged  rca.Merger
	lastTop string

	// OnWindow, if set, observes every closed window in order.
	OnWindow func(WindowResult)
}

// New builds a service over the partition's units. paths decompresses
// PathIDs for mining (shared, read-only).
func New(cfg Config, part *topology.Partition, paths *pathid.Table) *Service {
	if cfg.WindowEpochs < 1 {
		cfg.WindowEpochs = 1
	}
	if cfg.EpochSampleCap < 1 {
		cfg.EpochSampleCap = 1
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = dataplane.EpochDuration
	}
	if fc := flowStateBytes(cfg.Reservoir); cfg.BudgetBytes < fc {
		cfg.BudgetBytes = fc
	}
	if cfg.RCA.EpochDuration <= 0 {
		cfg.RCA.EpochDuration = cfg.Epoch
	}
	if cfg.RCA.RecentWindow <= 0 {
		cfg.RCA.RecentWindow = netsim.Time(cfg.WindowEpochs) * cfg.Epoch
	}
	s := &Service{
		cfg:              cfg,
		part:             part,
		reg:              metrics.NewRegistry(),
		finalizedThrough: -1,
		maxEpoch:         -1,
		lastAnalyzed:     -1,
	}
	s.ingested = s.reg.Counter("records_ingested")
	s.late = s.reg.Counter("records_late")
	s.sampled = s.reg.Counter("records_sampled")
	s.replaced = s.reg.Counter("records_replaced")
	s.rejected = s.reg.Counter("records_rejected")
	s.evicted = s.reg.Counter("flows_evicted")
	s.windows = s.reg.Counter("windows_analyzed")
	s.diagnoses = s.reg.Counter("diagnoses")
	s.churn = s.reg.Counter("culprit_churn")
	s.resident = s.reg.Gauge("resident_bytes")
	s.flowsRes = s.reg.Gauge("flows_resident")
	s.lag = s.reg.Gauge("window_lag_epochs")

	s.units = make([]*unitState, part.NumUnits)
	for u := range s.units {
		s.units[u] = newUnitState(&cfg, u)
	}
	// Thresholds are installed per unit before each analysis.
	s.scratch = make([]windowScratch, max(1, min(cfg.Workers, part.NumUnits)))
	for i := range s.scratch {
		s.scratch[i].analyzer = rca.New(cfg.RCA, paths, nil)
	}
	return s
}

// Metrics exposes the live registry (read via Snapshot).
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// Results returns the closed windows so far (shared slice; do not mutate).
func (s *Service) Results() []WindowResult { return s.results }

// Merged folds every closed window's per-unit culprit lists under the
// cross-diagnosis merge rules: scores accumulate across windows, each
// culprit keeps the best coverage that supported it.
func (s *Service) Merged() []rca.Culprit { return s.merged.Ranked() }

// Ingest routes one sink record to its unit shard. Records for epochs
// already sealed are counted late and dropped — determinism requires that
// a sealed window never reopens. The stream clocks itself when nobody
// calls CloseEpoch: a record of epoch x proves epochs <= x-2 complete (the
// bound CloseEpoch documents), so they seal before the ring would wrap
// onto them.
func (s *Service) Ingest(rec dataplane.RTRecord) {
	s.ingested.Inc()
	if int64(rec.Epoch)-2 > s.finalizedThrough {
		s.CloseEpoch(rec.Epoch - 1)
	}
	if int64(rec.Epoch) <= s.finalizedThrough {
		s.late.Inc()
		return
	}
	if int64(rec.Epoch) > s.maxEpoch {
		s.maxEpoch = int64(rec.Epoch)
	}
	u := s.units[s.part.UnitOf[rec.Flow.Sink]]
	kind := u.ingest(rec)
	switch kind {
	case ingestSampled:
		s.sampled.Inc()
	case ingestReplaced:
		s.replaced.Inc()
	case ingestRejected:
		s.rejected.Inc()
	}
	s.evicted.Add(u.takeEvictions())
}

// CloseEpoch declares that every record arriving up to the end of epoch e
// has been ingested. Epochs <= e-1 are then complete (a record promoted in
// epoch x reaches its sink before the end of epoch x+1), so they seal and
// close any window that ends on them.
func (s *Service) CloseEpoch(e uint32) { s.closeThrough(int64(e) - 1) }

// closeThrough seals every unsealed epoch through last. Epoch arithmetic
// here and below is 64-bit: a record's Epoch is four bytes off the wire,
// so the top of the uint32 range is reachable and must neither wrap nor
// hang.
func (s *Service) closeThrough(last int64) {
	for ep := s.finalizedThrough + 1; ep <= last; ep++ {
		if ep-int64(s.cfg.WindowEpochs) > s.maxEpoch {
			// The window ending on ep starts more than one epoch after the
			// newest epoch any record has carried, so it and every later
			// one through last is empty in every unit's ring: seal the
			// stretch unanalysed. A record's Epoch is four bytes off the
			// wire; one far ahead costs W+2 windows, not one per epoch.
			s.finalizedThrough = last
			break
		}
		s.finalizeEpoch(uint32(ep))
	}
	s.updateGauges()
}

// Finish seals everything observed, closing the tail windows: the newest
// epoch and the grace epoch after it, where the epoch range has one.
func (s *Service) Finish() {
	if s.maxEpoch >= 0 {
		s.closeThrough(min(s.maxEpoch+1, math.MaxUint32))
	}
}

// finalizeEpoch seals epoch ep and, once W epochs exist, analyzes the
// window ending on it in every unit.
func (s *Service) finalizeEpoch(ep uint32) {
	s.finalizedThrough = int64(ep)
	W := int64(s.cfg.WindowEpochs)
	if int64(ep)+1 < W {
		return
	}
	start := uint32(int64(ep) + 1 - W)
	outs := make([]unitWindowOut, len(s.units))
	workers := s.cfg.Workers
	if workers > len(s.units) {
		workers = len(s.units)
	}
	if workers <= 1 {
		for i, u := range s.units {
			outs[i] = u.analyzeWindow(&s.scratch[0], start, ep)
		}
	} else {
		// Units are independent state shards; results land at fixed
		// indices and everything below folds in unit order, so the
		// schedule cannot reach the output.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			//mars:sync workers stride disjoint unit indices, each with its own scratch, and write into pre-indexed outs slots; everything below folds outs in unit order, so the schedule cannot reach the output (the CI determinism job diffs workers=1 against workers=8)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(s.units); i += workers {
					outs[i] = s.units[i].analyzeWindow(&s.scratch[w], start, ep)
				}
			}(w)
		}
		wg.Wait()
	}

	res := WindowResult{Start: start, End: ep, Time: (netsim.Time(ep) + 1) * s.cfg.Epoch}
	var lists [][]rca.Culprit
	for _, o := range outs {
		res.Sampled += o.sampled
		res.Offered += o.offered
		if len(o.culprits) > 0 {
			lists = append(lists, o.culprits)
			s.merged.Add(o.culprits)
		}
	}
	res.Culprits = rca.MergeRanked(lists)
	s.lastAnalyzed = int64(ep)
	s.windows.Inc()
	if len(res.Culprits) > 0 {
		s.diagnoses.Inc()
		top := res.Culprits[0].String()
		if s.lastTop != "" && top != s.lastTop {
			s.churn.Inc()
		}
		s.lastTop = top
	}
	s.results = append(s.results, res)
	if s.OnWindow != nil {
		s.OnWindow(res)
	}
}

// updateGauges refreshes the point-in-time surface in unit order.
func (s *Service) updateGauges() {
	var bytes, flows int64
	for _, u := range s.units {
		bytes += int64(u.flowBytes) + u.bucketBytes()
		flows += int64(u.flows.Len())
	}
	s.resident.Set(bytes)
	s.flowsRes.Set(flows)
	lag := int64(0)
	if s.maxEpoch >= 0 && s.maxEpoch > s.lastAnalyzed {
		// After Finish the last finalized epoch passes maxEpoch (the
		// grace close); a drained stream reads zero, not negative.
		lag = s.maxEpoch - s.lastAnalyzed
	}
	s.lag.Set(lag)
}

// FlowBytes returns one unit's current flow-state byte accounting (test
// hook for the budget bound).
func (s *Service) FlowBytes(unit int) int { return s.units[unit].flowBytes }

// ingestKind classifies one record's sampling outcome.
type ingestKind uint8

const (
	ingestSampled ingestKind = iota
	ingestReplaced
	ingestRejected
)

// unitState is one pod-partition unit's shard of the stream: bounded flow
// table and epoch sample buckets; its reservoirs are the thresholds its
// windows are scored against (ThresholdOf). Only its owning goroutine (the
// coordinator, or the worker analyzing it) touches it.
type unitState struct {
	cfg  *Config
	unit int
	rng  *rand.Rand
	// flows maps each resident flow's FlowID.Key to its slot: the state of
	// slot s is states[s/flowChunk][s%flowChunk]. Slots below made hold a
	// state, resident or free.
	flows    hashidx.Index
	states   []*[flowChunk]flowState
	made     int32
	flowCost int
	// flowBytes is the accounted size of the flow table.
	flowBytes int
	// evictions accumulates since the last takeEvictions.
	evictions int64
	// coldest orders the resident flows for eviction: a min-heap whose
	// root, once its key is current, is the victim.
	coldest evictionHeap
	// free holds the slots of evicted flows for the next admission to
	// reuse (reservoir sample slab and refresh scratch included).
	free []int32

	// ring holds the live epoch buckets: up to W sealed (in-window) plus
	// two still-filling epochs.
	ring []*bucket
}

// windowScratch is one analysis worker's memory for every unit it analyzes:
// the window's records (rca.AnalyzeWindow keeps no reference to them) and
// the analyzer, whose working set carries nothing from one unit's analysis
// to the next.
type windowScratch struct {
	window   []dataplane.RTRecord
	analyzer *rca.Analyzer
}

// flowChunk is how many flow states a unit allocates at once.
const flowChunk = 16

type flowState struct {
	flow      dataplane.FlowID
	res       *reservoir.Reservoir
	lastEpoch uint32
	// heapEpoch is the flow's key in unitState.coldest: its lastEpoch when
	// it was last sifted. Epochs only rise, so it never exceeds lastEpoch.
	heapEpoch uint32
}

// evictionHeap is a binary min-heap of the resident flows, least recently
// active first (ties broken by flow ID): a strict total order. Keys are
// lazy — ingest raises a flow's lastEpoch without moving it — so only a
// root whose key is current is the flow a scan of the whole table would
// pick (evictColdest).
type evictionHeap []*flowState

// colder orders the heap by (heapEpoch, Src, Sink).
func colder(a, b *flowState) bool {
	if a.heapEpoch != b.heapEpoch {
		return a.heapEpoch < b.heapEpoch
	}
	if a.flow.Src != b.flow.Src {
		return a.flow.Src < b.flow.Src
	}
	return a.flow.Sink < b.flow.Sink
}

func (h *evictionHeap) push(fs *flowState) {
	*h = append(*h, fs)
	h.up(len(*h) - 1)
}

// pop removes and returns the root.
func (h *evictionHeap) pop() *flowState {
	old := *h
	n := len(old) - 1
	root := old[0]
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return root
}

func (h evictionHeap) up(i int) {
	fs := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !colder(fs, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = fs
}

func (h evictionHeap) down(i int) {
	fs := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && colder(h[r], h[c]) {
			c = r
		}
		if !colder(h[c], fs) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = fs
}

type bucket struct {
	epoch   uint32
	offered int
	entries []dataplane.RTRecord
}

func newUnitState(cfg *Config, unit int) *unitState {
	u := &unitState{
		cfg:      cfg,
		unit:     unit,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(unit+1)*0x9e3779b97f4a7c15))),
		flowCost: flowStateBytes(cfg.Reservoir),
		ring:     make([]*bucket, cfg.WindowEpochs+2),
	}
	for i := range u.ring {
		u.ring[i] = &bucket{}
	}
	return u
}

// ThresholdOf implements rca.Thresholds from the unit's live reservoirs.
func (u *unitState) ThresholdOf(flow dataplane.FlowID) netsim.Time {
	if fs := u.resident(flow); fs != nil {
		return netsim.Time(fs.res.Threshold())
	}
	return netsim.Time(u.cfg.Reservoir.DefaultThreshold)
}

// resident returns flow's state, or nil if flow is not resident.
func (u *unitState) resident(flow dataplane.FlowID) *flowState {
	if slot, ok := u.flows.Get(flow.Key()); ok {
		return &u.states[slot/flowChunk][slot%flowChunk]
	}
	return nil
}

// slot returns the ring bucket for epoch ep, recycling an expired slot
// when the ring wraps.
func (u *unitState) slot(ep uint32) *bucket {
	b := u.ring[int(ep)%len(u.ring)]
	if b.epoch != ep {
		b.epoch = ep
		b.offered = 0
		b.entries = b.entries[:0]
	}
	return b
}

// ingest feeds one record: flow state first (every observation counts
// toward the threshold), then the epoch sample (Algorithm R).
func (u *unitState) ingest(rec dataplane.RTRecord) ingestKind {
	fs := u.resident(rec.Flow)
	if fs == nil {
		fs = u.admitFlow(rec.Flow, rec.Epoch)
	}
	fs.res.Input(float64(rec.Latency))
	if rec.Epoch > fs.lastEpoch {
		fs.lastEpoch = rec.Epoch // the heap key catches up in evictColdest
	}

	b := u.slot(rec.Epoch)
	b.offered++
	// The sample's bound is the configured cap, never the bucket's
	// capacity: growth may overshoot a cap that is not a power of two.
	sampleCap := u.cfg.EpochSampleCap
	if len(b.entries) < sampleCap {
		b.entries = append(u.room(b), rec)
		return ingestSampled
	}
	if j := u.rng.Intn(b.offered); j < sampleCap {
		b.entries[j] = rec
		return ingestReplaced
	}
	return ingestRejected
}

// minBucket is the smallest size a bucket grows to.
const minBucket = 8

// room returns b's sample with room to append one record (b is under the
// cap). A bucket starts empty; when it is full it grows to the previous
// epoch's retained count or to double its size, whichever is larger, and
// never past the cap, so ring memory follows what the unit samples, not
// what it could.
func (u *unitState) room(b *bucket) []dataplane.RTRecord {
	e := b.entries
	if len(e) < cap(e) {
		return e
	}
	want := max(2*len(e), minBucket)
	if prev := b.epoch - 1; b.epoch > 0 {
		if p := u.ring[int(prev)%len(u.ring)]; p.epoch == prev {
			want = max(want, len(p.entries))
		}
	}
	return slices.Grow(e, min(want, u.cfg.EpochSampleCap)-len(e))
}

// admitFlow creates flow state active at epoch under the byte budget,
// evicting the least-recently-active flows first. The budget holds at
// least one flow (New), so an empty table always has room.
func (u *unitState) admitFlow(flow dataplane.FlowID, epoch uint32) *flowState {
	for u.flowBytes+u.flowCost > u.cfg.BudgetBytes {
		u.evictColdest()
	}
	var slot int32
	if n := len(u.free); n > 0 {
		slot, u.free = u.free[n-1], u.free[:n-1]
	} else {
		if slot = u.made; slot%flowChunk == 0 {
			u.states = append(u.states, new([flowChunk]flowState))
		}
		u.made++
	}
	fs := &u.states[slot/flowChunk][slot%flowChunk]
	if fs.res == nil {
		fs.res = reservoir.New(u.cfg.Reservoir, u.rng)
	} else {
		// A reset reservoir is in reservoir.New's state, and neither draws
		// from the RNG, so reuse cannot reach the output.
		fs.res.Reset()
	}
	fs.flow, fs.lastEpoch, fs.heapEpoch = flow, epoch, epoch
	u.flows.Put(flow.Key(), slot)
	u.coldest.push(fs)
	u.flowBytes += u.flowCost
	return fs
}

// evictColdest removes the least-recently-active flow (ties broken by
// flow ID), so eviction order is a pure function of the ingest sequence.
// No heap key is above its flow's true key, so once the root's key is
// current the root's true key is at most every other flow's: it is the
// victim. A stale root takes its current key and sinks first.
func (u *unitState) evictColdest() {
	for root := u.coldest[0]; root.heapEpoch < root.lastEpoch; root = u.coldest[0] {
		root.heapEpoch = root.lastEpoch
		u.coldest.down(0)
	}
	slot, _ := u.flows.Delete(u.coldest.pop().flow.Key())
	u.free = append(u.free, slot)
	u.flowBytes -= u.flowCost
	u.evictions++
}

func (u *unitState) takeEvictions() int64 {
	n := u.evictions
	u.evictions = 0
	return n
}

type unitWindowOut struct {
	culprits         []rca.Culprit
	sampled, offered int
}

// analyzeWindow scores the sealed window [start, end] through the rca
// pipeline with this unit's thresholds, in sc.
func (u *unitState) analyzeWindow(sc *windowScratch, start, end uint32) unitWindowOut {
	var out unitWindowOut
	for ep := int64(start); ep <= int64(end); ep++ { // 64-bit: end may be the last uint32
		// slot, not a bare ring read: an epoch that brought this unit no
		// records still retires the bucket W+2 epochs before it.
		b := u.slot(uint32(ep))
		out.offered += b.offered
		out.sampled += len(b.entries)
	}
	if out.sampled == 0 {
		return out
	}
	records := slices.Grow(sc.window[:0], out.sampled)
	for ep := int64(start); ep <= int64(end); ep++ {
		records = append(records, u.slot(uint32(ep)).entries...)
	}
	sc.window = records
	coverage := 1.0
	if out.offered > 0 {
		coverage = float64(out.sampled) / float64(out.offered)
	}
	now := (netsim.Time(end) + 1) * u.cfg.Epoch
	sc.analyzer.Thr = u
	out.culprits = sc.analyzer.AnalyzeWindow(records, now, coverage)
	return out
}

// bucketBytes is the accounted size of the retained window samples.
func (u *unitState) bucketBytes() int64 {
	var n int64
	for _, b := range u.ring {
		n += int64(len(b.entries)) * sampleEntryBytes
	}
	return n
}
