package stream

import (
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// warmService builds a service whose steady-state ingest path is fully
// warmed: flows admitted, reservoirs at volume (scratch buffers at
// capacity), the current epoch bucket full so the sampler runs the
// replacement branch.
func warmService(tb testing.TB, epochs uint32) (*Service, *testFabric) {
	tb.Helper()
	f := newTestFabric(tb)
	cfg := DefaultConfig(21)
	cfg.EpochSampleCap = 4
	s := New(cfg, f.part, f.table)
	paths := f.pathsInto(tb, f.ft.EdgeIDs[0])
	for e := uint32(0); e < epochs; e++ {
		for _, p := range paths {
			for i := 0; i < 40; i++ {
				s.Ingest(f.rec(tb, p, e, netsim.Millisecond, 0))
			}
		}
		if e+1 < epochs {
			s.CloseEpoch(e)
		}
	}
	return s, f
}

// TestStreamIngestAllocs pins the steady-state ingest hot path at zero
// allocations per record: flow lookup, reservoir input (scratch-buffer
// refresh), and Algorithm-R replacement must all run allocation-free once
// warm.
func TestStreamIngestAllocs(t *testing.T) {
	s, f := warmService(t, 4)
	p := f.pathsInto(t, f.ft.EdgeIDs[0])[0]
	rec := f.rec(t, p, 3, netsim.Millisecond, 0)
	avg := testing.AllocsPerRun(200, func() {
		s.Ingest(rec)
	})
	if avg != 0 {
		t.Fatalf("steady-state Ingest allocates %.1f/op, want 0", avg)
	}
}

// evictingUnit returns a warm unit at DefaultConfig and its feed: 224
// flows, four times what the unit's budget holds, each active once per
// epoch in a fixed order, so every record admits its flow and evicts the
// least recently active one, and the epoch's 224 records overflow its
// 128-record sample.
func evictingUnit(tb testing.TB) (*unitState, func() dataplane.RTRecord) {
	tb.Helper()
	f := newTestFabric(tb)
	cfg := DefaultConfig(41)
	u := newUnitState(&cfg, int(f.part.UnitOf[f.ft.EdgeIDs[0]]), f.table)
	const flows = 224
	if held := cfg.BudgetBytes / u.flowCost; flows <= held {
		tb.Fatalf("%d flows fit the %d-flow budget; the feed must evict", flows, held)
	}
	i := 0
	next := func() dataplane.RTRecord {
		rec := dataplane.RTRecord{
			Flow:    dataplane.FlowID{Src: topology.NodeID(i % flows), Sink: f.ft.EdgeIDs[0]},
			Epoch:   uint32(i / flows),
			Latency: netsim.Time(1000 + i%97),
		}
		i++
		return rec
	}
	for range 4 * flows { // free list, buckets, flow table and heap at size
		u.ingest(next())
	}
	return u, next
}

// TestStreamEvictingIngestAllocs pins the evicting ingest path at zero
// allocations per record: eviction, flow-state reuse through the free
// list and admission must all run allocation-free once warm.
func TestStreamEvictingIngestAllocs(t *testing.T) {
	u, next := evictingUnit(t)
	u.takeEvictions()
	avg := testing.AllocsPerRun(1000, func() {
		u.ingest(next())
	})
	if avg != 0 {
		t.Fatalf("evicting ingest allocates %.2f/record, want 0", avg)
	}
	if n := u.takeEvictions(); n != 1001 {
		t.Fatalf("%d evictions over 1001 records, want one per record", n)
	}
}

// BenchmarkStreamEvictingIngest measures one record on a warm unit's
// evicting path (evictingUnit): the ingest cost of a unit whose flows
// outnumber its budget, which BenchmarkStreamStep's resident flows never
// reach.
func BenchmarkStreamEvictingIngest(b *testing.B) {
	u, next := evictingUnit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.ingest(next())
	}
}

// BenchmarkStreamStep drives the full streaming step — ingest one epoch's
// records, seal the epoch, analyze the sliding window — the figure behind
// the sustained diagnosis throughput claim.
func BenchmarkStreamStep(b *testing.B) {
	f := newTestFabric(b)
	paths := f.pathsInto(b, f.ft.EdgeIDs[0])
	badAgg := f.ft.AggIDs[0]
	cfg := DefaultConfig(33)
	cfg.WindowEpochs = 4
	s := New(cfg, f.part, f.table)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := uint32(i)
		for _, p := range paths {
			gap := uint32(0)
			if p.Contains([]topology.NodeID{badAgg}) && e%7 >= 5 {
				gap = 1
			}
			for r := 0; r < 8; r++ {
				s.Ingest(f.rec(b, p, e, netsim.Millisecond, gap))
			}
		}
		s.CloseEpoch(e + 1)
	}
}
