package stream

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/fsm"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
	"mars/internal/topology"
)

// testFabric is a fat tree with a full path table, shared by the
// synthetic-ingest tests: k=4 unless a test asks for more.
type testFabric struct {
	ft    *topology.FatTree
	part  *topology.Partition
	table *pathid.Table
}

func newTestFabric(t testing.TB) *testFabric { return newTestFabricK(t, 4) }

// newTestFabricK widens the PathID to 16 bits above k=4, whose path sets
// the 8-bit default cannot tell apart.
func newTestFabricK(t testing.TB, k int) *testFabric {
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
	return &testFabric{ft: ft, part: ft.PodPartition(), table: table}
}

// rec fabricates one sink record for the flow src→sink over path (which
// must terminate at sink).
func (f *testFabric) rec(t testing.TB, path topology.Path, epoch uint32, lat netsim.Time, gap uint32) dataplane.RTRecord {
	t.Helper()
	id, ok := f.table.FinalID(path)
	if !ok {
		t.Fatalf("path %v has no table ID", path)
	}
	flow := dataplane.FlowID{Src: path[0], Sink: path[len(path)-1]}
	return dataplane.RTRecord{
		Flow:        flow,
		PathID:      id,
		Epoch:       epoch,
		Latency:     lat,
		SourceCount: 6,
		SinkCount:   6,
		PathCount:   6,
		EpochGap:    gap,
		Arrival:     netsim.Time(epoch)*100*netsim.Millisecond + 5*netsim.Millisecond,
	}
}

// pathsInto returns one cross-pod path per remote source edge into
// dstEdge — one flow pinned to one path, like per-flow ECMP — cycling
// through the path alternatives so the flows spread across both
// aggregation switches of the destination pod.
func (f *testFabric) pathsInto(t testing.TB, dstEdge topology.NodeID) []topology.Path {
	t.Helper()
	var out []topology.Path
	i := 0
	for _, src := range f.ft.EdgeIDs {
		if src == dstEdge || f.ft.PodOf(src) == f.ft.PodOf(dstEdge) {
			continue
		}
		ps := f.ft.AllShortestPaths(src, dstEdge)
		out = append(out, ps[i%len(ps)])
		i++
	}
	if len(out) == 0 {
		t.Fatal("no cross-pod paths found")
	}
	return out
}

func snapshotOf(s *Service) string {
	var b strings.Builder
	b.WriteString(s.Metrics().Snapshot())
	b.WriteByte('\n')
	for _, w := range s.Results() {
		fmt.Fprintf(&b, "window [%d,%d] t=%v sampled=%d/%d\n", w.Start, w.End, w.Time, w.Sampled, w.Offered)
		for _, c := range w.Culprits {
			fmt.Fprintf(&b, "  %s\n", c)
		}
	}
	for _, c := range s.Merged() {
		fmt.Fprintf(&b, "merged %s\n", c)
	}
	return b.String()
}

// driveFaulted pushes a deterministic synthetic schedule: steady traffic
// into one sink pod, with epoch-gap drop evidence on every path through
// one aggregation switch during [faultFrom, faultTo].
func driveFaulted(t testing.TB, f *testFabric, s *Service, epochs int, faultFrom, faultTo uint32, badAgg topology.NodeID) {
	t.Helper()
	dst := f.ft.EdgeIDs[0]
	paths := f.pathsInto(t, dst)
	for e := uint32(0); int(e) < epochs; e++ {
		for _, p := range paths {
			gap := uint32(0)
			if e >= faultFrom && e <= faultTo && p.Contains([]topology.NodeID{badAgg}) {
				gap = 1
			}
			s.Ingest(f.rec(t, p, e, 2*netsim.Millisecond, gap))
		}
		s.CloseEpoch(e)
	}
	s.Finish()
}

// The per-flow byte budget is a hard bound: however many flows terminate
// in a unit, its accounted flow state never exceeds BudgetBytes, and the
// overflow shows up as evictions.
func TestStreamBudgetBound(t *testing.T) {
	f := newTestFabric(t)
	cfg := DefaultConfig(7)
	cfg.Reservoir.Volume = 16
	flowCost := cfg.Reservoir.Volume*8 + flowStateOverheadBytes
	cfg.BudgetBytes = 3 * flowCost // room for three flows per unit
	s := New(cfg, f.part, f.table)

	dst := f.ft.EdgeIDs[0]
	unit := int(f.part.UnitOf[dst])
	paths := f.pathsInto(t, dst) // 6 distinct source edges x multipath
	if len(paths) < 6 {
		t.Fatalf("want >=6 paths, got %d", len(paths))
	}
	for e := uint32(0); e < 6; e++ {
		for _, p := range paths {
			s.Ingest(f.rec(t, p, e, netsim.Millisecond, 0))
			if got := s.units[unit].flowBytes; got > cfg.BudgetBytes {
				t.Fatalf("epoch %d: flow bytes %d exceed budget %d", e, got, cfg.BudgetBytes)
			}
		}
		s.CloseEpoch(e)
	}
	s.Finish()
	if v, _ := s.Metrics().Get("flows_evicted"); v == 0 {
		t.Fatal("expected evictions under a 3-flow budget with 6 source edges")
	}
	if v, _ := s.Metrics().Get("flows_resident"); v > int64(3*f.part.NumUnits) {
		t.Fatalf("flows_resident = %d, exceeds 3 per unit", v)
	}
}

// A budget below one flow's cost is the one-flow budget: the unit holds
// only the flow it is ingesting, its accounted state never exceeds one
// flow, and the whole observable surface equals the run at exactly one
// flow's cost.
func TestStreamBudgetBelowOneFlow(t *testing.T) {
	f := newTestFabric(t)
	dst := f.ft.EdgeIDs[0]
	unit := int(f.part.UnitOf[dst])
	paths := f.pathsInto(t, dst)
	flowCost := DefaultConfig(0).Reservoir.Volume*8 + flowStateOverheadBytes
	run := func(budget int) string {
		cfg := DefaultConfig(9)
		cfg.BudgetBytes = budget
		s := New(cfg, f.part, f.table)
		for e := uint32(0); e < 6; e++ {
			for _, p := range paths {
				s.Ingest(f.rec(t, p, e, netsim.Millisecond, 0))
				if got := s.units[unit].flowBytes; got != flowCost {
					t.Fatalf("budget %d, epoch %d: flow bytes %d, want one flow's %d", budget, e, got, flowCost)
				}
			}
			s.CloseEpoch(e)
		}
		s.Finish()
		if v, _ := s.Metrics().Get("flows_evicted"); v < int64(6*len(paths)-1) {
			t.Fatalf("budget %d: %d evictions, want every admission after the first to evict", budget, v)
		}
		return snapshotOf(s)
	}
	want := run(flowCost)
	for _, budget := range []int{0, flowCost - 1} {
		if got := run(budget); got != want {
			t.Errorf("budget %d differs from the one-flow budget:\n%s\nwant:\n%s", budget, got, want)
		}
	}
}

// One ingest sequence, any worker count: the whole observable surface
// (windows, culprits, merged list, metrics) must be byte-identical.
func TestStreamWorkerInvariance(t *testing.T) {
	f := newTestFabric(t)
	badAgg := f.ft.AggIDs[2]
	run := func(workers int) string {
		cfg := DefaultConfig(11)
		cfg.WindowEpochs = 3
		cfg.Workers = workers
		s := New(cfg, f.part, f.table)
		driveFaulted(t, f, s, 10, 4, 9, badAgg)
		return snapshotOf(s)
	}
	base := run(1)
	for _, w := range []int{2, 4, 13} {
		if got := run(w); got != base {
			t.Fatalf("workers=%d diverges from workers=1:\n--- w=1 ---\n%s--- w=%d ---\n%s", w, base, w, got)
		}
	}
	if !strings.Contains(base, "drop") {
		t.Fatalf("expected a drop culprit in the faulted run:\n%s", base)
	}
}

// Same schedule, same seed → byte-identical output (seeded determinism of
// the sampling and eviction paths).
func TestStreamRunDeterminism(t *testing.T) {
	f := newTestFabric(t)
	run := func() string {
		cfg := DefaultConfig(5)
		cfg.EpochSampleCap = 8 // force sampler replacement activity
		s := New(cfg, f.part, f.table)
		driveFaulted(t, f, s, 8, 3, 7, f.ft.AggIDs[1])
		return snapshotOf(s)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs diverge:\n%s\nvs\n%s", a, b)
	}
}

// A fault straddling two windows must be diagnosed in both: the window
// that closes on the fault's first epochs and the next one that slides
// over its tail, and the cross-window merge must carry it.
func TestStreamWindowSlideBoundary(t *testing.T) {
	f := newTestFabric(t)
	cfg := DefaultConfig(3)
	cfg.WindowEpochs = 2
	s := New(cfg, f.part, f.table)
	badAgg := f.ft.AggIDs[0]
	// Fault in epochs 2..3: window [2,3] sees both epochs; windows [1,2]
	// and [3,4] each straddle one boundary epoch.
	driveFaulted(t, f, s, 6, 2, 3, badAgg)

	blames := func(w WindowResult) bool {
		for _, c := range w.Culprits {
			if c.Cause == rca.CauseDrop && c.ContainsSwitch(badAgg) {
				return true
			}
		}
		return false
	}
	var hits []string
	for _, w := range s.Results() {
		if blames(w) {
			hits = append(hits, fmt.Sprintf("[%d,%d]", w.Start, w.End))
		}
	}
	if len(hits) < 2 {
		t.Fatalf("fault found in %d window(s) %v; want it in both straddling windows", len(hits), hits)
	}
	merged := s.Merged()
	if len(merged) == 0 || !merged[0].ContainsSwitch(badAgg) {
		t.Fatalf("merged top-1 does not blame s%d: %v", badAgg, merged)
	}
}

// Late records (arriving after their epoch sealed) must be counted and
// dropped, never reopening a closed window.
func TestStreamLateRecordsDropped(t *testing.T) {
	f := newTestFabric(t)
	s := New(DefaultConfig(1), f.part, f.table)
	dst := f.ft.EdgeIDs[0]
	p := f.pathsInto(t, dst)[0]
	for e := uint32(0); e < 5; e++ {
		s.Ingest(f.rec(t, p, e, netsim.Millisecond, 0))
		s.CloseEpoch(e)
	}
	// Epochs <= 3 are sealed now; epoch 1 is long gone.
	s.Ingest(f.rec(t, p, 1, netsim.Millisecond, 0))
	if v, _ := s.Metrics().Get("records_late"); v != 1 {
		t.Fatalf("records_late = %d, want 1", v)
	}
}

// A record's Epoch is four bytes off the wire. One that names an epoch far
// ahead seals everything up to it without a window analysis (and a result)
// per epoch in between — at the parent this test did not return — and the
// service carries on from there.
func TestStreamFarFutureEpochIsBounded(t *testing.T) {
	f := newTestFabric(t)
	cfg := DefaultConfig(1)
	s := New(cfg, f.part, f.table)
	p := f.pathsInto(t, f.ft.EdgeIDs[0])[0]
	const far = 1 << 31
	s.Ingest(f.rec(t, p, 0, netsim.Millisecond, 0))
	s.Ingest(f.rec(t, p, far, netsim.Millisecond, 0))
	if n := len(s.Results()); n > cfg.WindowEpochs+2 {
		t.Fatalf("one far-future record closed %d windows, want at most W+2 = %d", n, cfg.WindowEpochs+2)
	}
	if got := s.Results()[0]; got.Sampled != 1 || got.End != uint32(cfg.WindowEpochs-1) {
		t.Errorf("first window = [%d,%d] with %d records, want the one holding epoch 0's", got.Start, got.End, got.Sampled)
	}
	s.Ingest(f.rec(t, p, far+1, netsim.Millisecond, 0))
	if late, _ := s.Metrics().Get("records_late"); late != 0 {
		t.Fatalf("records_late = %d: the stream did not carry on from the far epoch", late)
	}
	s.Finish()
	last := s.Results()[len(s.Results())-1]
	if last.End != far+2 || last.Sampled != 2 {
		t.Errorf("last window = [%d,%d] with %d records, want the one ending on %d with both far records", last.Start, last.End, last.Sampled, uint32(far+2))
	}
	if n := len(s.Results()); n > 2*(cfg.WindowEpochs+2) {
		t.Errorf("%d windows closed in all", n)
	}
}

// The top of the epoch range is reachable (four bytes off the wire), and
// the stream's last two epochs must still be analysed there. At the parent
// Finish's uint32(maxEpoch)+2 wrapped and closed nothing; behind it sat a
// window-start test, two window times and a loop condition that wrap at
// epoch 2^32-1, the last of which never terminates.
func TestStreamTailWindowsAtMaxEpoch(t *testing.T) {
	f := newTestFabric(t)
	cfg := DefaultConfig(1)
	s := New(cfg, f.part, f.table)
	paths := f.pathsInto(t, f.ft.EdgeIDs[0])
	const top = math.MaxUint32
	for _, e := range []uint32{top - 1, top} {
		for i := 0; i < 10; i++ {
			s.Ingest(f.rec(t, paths[i%len(paths)], e, netsim.Millisecond, 0))
		}
	}
	s.Finish()
	res := s.Results()
	if len(res) < 2 {
		t.Fatalf("%d windows closed, want the two tail windows", len(res))
	}
	for i, want := range []struct {
		end     uint32
		sampled int
	}{{top - 1, 10}, {top, 20}} {
		got := res[len(res)-2+i]
		wantTime := (netsim.Time(want.end) + 1) * cfg.Epoch
		if got.End != want.end || got.Start != want.end-uint32(cfg.WindowEpochs)+1 || got.Sampled != want.sampled || got.Time != wantTime {
			t.Errorf("tail window %d = [%d,%d] t=%v with %d records, want [%d,%d] t=%v with %d",
				i, got.Start, got.End, got.Time, got.Sampled,
				want.end-uint32(cfg.WindowEpochs)+1, want.end, wantTime, want.sampled)
		}
	}
	if late, _ := s.Metrics().Get("records_late"); late != 0 {
		t.Errorf("records_late = %d", late)
	}
}

// The epoch sampler is a hard cap: a unit never retains more than
// EpochSampleCap records per epoch, and the coverage fraction reflects
// what was dropped.
func TestStreamEpochSampleCap(t *testing.T) {
	f := newTestFabric(t)
	cfg := DefaultConfig(9)
	cfg.WindowEpochs = 2
	cfg.EpochSampleCap = 4
	s := New(cfg, f.part, f.table)
	dst := f.ft.EdgeIDs[0]
	paths := f.pathsInto(t, dst)
	for e := uint32(0); e < 4; e++ {
		for _, p := range paths {
			for i := 0; i < 3; i++ {
				s.Ingest(f.rec(t, p, e, netsim.Millisecond, 0))
			}
		}
		s.CloseEpoch(e)
	}
	s.Finish()
	offered := int64(0)
	for _, w := range s.Results() {
		if w.Sampled > cfg.EpochSampleCap*cfg.WindowEpochs*f.part.NumUnits {
			t.Fatalf("window [%d,%d] sampled %d records, cap is %d/epoch/unit",
				w.Start, w.End, w.Sampled, cfg.EpochSampleCap)
		}
		offered += int64(w.Offered)
	}
	if rep, _ := s.Metrics().Get("records_replaced"); rep == 0 {
		t.Fatal("sampler never replaced despite overflow")
	}
	if rej, _ := s.Metrics().Get("records_rejected"); rej == 0 {
		t.Fatal("sampler never rejected despite overflow")
	}
	if offered == 0 {
		t.Fatal("no records offered")
	}
}

// Ring buckets start empty and grow to what their epochs sample. At caps
// that are not powers of two, where growth overshoots the cap, a service
// must still sample exactly as one whose buckets were sized to the cap up
// front: same windows, culprits and metrics, and no bucket ever past the
// cap.
func TestStreamGrownBucketsMatchPreSized(t *testing.T) {
	f := newTestFabric(t)
	badAgg := f.ft.AggIDs[0]
	paths := f.pathsInto(t, f.ft.EdgeIDs[0])
	for _, sampleCap := range []int{1, 5, 100} {
		cfg := DefaultConfig(17)
		cfg.EpochSampleCap = sampleCap
		grown, presized := New(cfg, f.part, f.table), New(cfg, f.part, f.table)
		for _, u := range presized.units {
			for _, b := range u.ring {
				b.entries = make([]dataplane.RTRecord, 0, sampleCap)
			}
		}
		for e := uint32(0); e < 10; e++ {
			for _, p := range paths {
				// 5 to 40 records per path: epochs grow, shrink and overflow.
				lat, gap := netsim.Millisecond, uint32(0)
				if e >= 4 && e <= 7 && p.Contains([]topology.NodeID{badAgg}) {
					lat, gap = 20*netsim.Millisecond, 1
				}
				for i := uint32(0); i < 5+5*(e*3%8); i++ {
					rec := f.rec(t, p, e, lat+netsim.Time(i)*netsim.Microsecond, gap)
					grown.Ingest(rec)
					presized.Ingest(rec)
				}
				for _, u := range grown.units {
					for _, b := range u.ring {
						if len(b.entries) > sampleCap {
							t.Fatalf("cap %d: epoch %d's bucket holds %d records", sampleCap, b.epoch, len(b.entries))
						}
					}
				}
			}
			grown.CloseEpoch(e)
			presized.CloseEpoch(e)
		}
		grown.Finish()
		presized.Finish()
		if rep, _ := grown.Metrics().Get("records_replaced"); rep == 0 {
			t.Fatalf("cap %d: the sampler never replaced; the replacement branch is untested", sampleCap)
		}
		if got, want := snapshotOf(grown), snapshotOf(presized); got != want {
			t.Fatalf("cap %d: grown buckets diverge from pre-sized ones:\n--- grown ---\n%s--- pre-sized ---\n%s", sampleCap, got, want)
		}
		if len(grown.Merged()) == 0 {
			t.Fatalf("cap %d: no culprits; equal empty outputs would prove nothing", sampleCap)
		}
	}
}

// A service's memory follows what it samples, not what it could: building
// one allocates the same at a cap of 1,024 records per epoch as at a cap of
// one, so a replay that samples little never zeroes W+2 full buckets per
// unit.
func TestStreamNewAllocatesNoSampleCap(t *testing.T) {
	f := newTestFabric(t)
	newBytes := func(sampleCap int) uint64 {
		cfg := DefaultConfig(1)
		cfg.WindowEpochs, cfg.BudgetBytes, cfg.EpochSampleCap = 8, 4<<20, sampleCap
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 8; i++ {
			New(cfg, f.part, f.table)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 8
	}
	one, wide := newBytes(1), newBytes(1024)
	// 1 KiB of slack per unit; one pre-sized 80-byte-record ring per unit is
	// (W+2) x 1,024 x 80 B = 800 KiB.
	if slack := uint64(f.part.NumUnits) << 10; wide > one+slack {
		t.Fatalf("New allocates %d B at cap 1,024 against %d B at cap 1: the ring is sized by the cap again", wide, one)
	}
	t.Logf("New: %d B at cap 1, %d B at cap 1,024 (%d units)", one, wide, f.part.NumUnits)
}

// A caller that only ingests and calls Finish once (deploy.ControllerNode)
// must get the windows a per-epoch CloseEpoch driver gets: the stream
// seals epoch x-2 on the first record of epoch x, before the W+2 ring
// could wrap onto a bucket still inside a window.
func TestStreamIngestAheadOfCloseEpoch(t *testing.T) {
	f := newTestFabric(t)
	badAgg := f.ft.AggIDs[2]
	paths := f.pathsInto(t, f.ft.EdgeIDs[0])
	const epochs = 12 // more than W+2 = 6, so an unsealed ring wraps twice
	run := func(closeEach bool) *Service {
		s := New(DefaultConfig(11), f.part, f.table)
		for e := uint32(0); e < epochs; e++ {
			for _, p := range paths {
				gap := uint32(0)
				if e >= 4 && p.Contains([]topology.NodeID{badAgg}) {
					gap = 1
				}
				s.Ingest(f.rec(t, p, e, 2*netsim.Millisecond, gap))
			}
			if closeEach {
				s.CloseEpoch(e)
			}
		}
		s.Finish()
		return s
	}
	ahead := run(false)
	for _, w := range ahead.Results() {
		if w.Sampled == 0 {
			t.Errorf("window [%d,%d] is empty: the ring wrapped onto its sampled records", w.Start, w.End)
		}
	}
	if late, _ := ahead.Metrics().Get("records_late"); late != 0 {
		t.Errorf("records_late = %d on an in-order feed", late)
	}
	if got, want := snapshotOf(ahead), snapshotOf(run(true)); got != want {
		t.Fatalf("ingest-ahead run diverges from the per-epoch CloseEpoch run:\n--- ahead ---\n%s--- stepped ---\n%s", got, want)
	}
}

// countingMiner is a Miner set from outside that counts the calls reaching
// it.
type countingMiner struct {
	fsm.Miner
	calls *int
}

func (m countingMiner) Mine(db fsm.Dataset, p fsm.Params) []fsm.Pattern {
	*m.calls++
	return m.Miner.Mine(db, p)
}

// The miner in Config.RCA.Miner is the one that mines every window, and
// each window's culprits are what rca.AnalyzeWindow with the default miner
// makes of the same sampled records under the same thresholds. Merged(),
// which the service accumulates window by window without keeping the
// lists, equals rca.MergeRanked over every per-unit list of every window.
func TestStreamMinesWithConfiguredMiner(t *testing.T) {
	f := newTestFabric(t)
	calls := 0
	cfg := DefaultConfig(11)
	cfg.WindowEpochs = 3
	cfg.RCA.Miner = countingMiner{Miner: fsm.NewPrefixSpan(), calls: &calls}
	s := New(cfg, f.part, f.table)

	refCfg := s.cfg.RCA // window-aligned EpochDuration/RecentWindow
	refCfg.Miner = nil  // rca.New's default
	diagnosed := 0
	var all [][]rca.Culprit
	s.OnWindow = func(w WindowResult) {
		var lists [][]rca.Culprit
		for _, u := range s.units {
			var recs []dataplane.RTRecord
			offered := 0
			for ep := w.Start; ep <= w.End; ep++ {
				if b := u.ring[int(ep)%len(u.ring)]; b.epoch == ep {
					recs = append(recs, b.entries...)
					offered += b.offered
				}
			}
			if len(recs) == 0 {
				continue
			}
			ref := rca.New(refCfg, f.table, u)
			if cs := ref.AnalyzeWindow(recs, w.Time, float64(len(recs))/float64(offered)); len(cs) > 0 {
				lists = append(lists, cs)
			}
		}
		if got, want := fmt.Sprint(w.Culprits), fmt.Sprint(rca.MergeRanked(lists)); got != want {
			t.Errorf("window [%d,%d]: service %s, rca.AnalyzeWindow %s", w.Start, w.End, got, want)
		}
		if len(w.Culprits) > 0 {
			diagnosed++
		}
		all = append(all, lists...)
	}
	driveFaulted(t, f, s, 10, 4, 9, f.ft.AggIDs[2])
	if got, want := s.Merged(), rca.MergeRanked(all); !reflect.DeepEqual(got, want) {
		t.Errorf("Merged() after %d windows:\n%v\nrca.MergeRanked over every per-unit list:\n%v", len(s.Results()), got, want)
	}
	if calls == 0 {
		t.Fatal("Config.RCA.Miner never saw a Mine call: the service mined with something else")
	}
	if diagnosed == 0 {
		t.Fatal("no window produced culprits; the comparison was vacuous")
	}
}
