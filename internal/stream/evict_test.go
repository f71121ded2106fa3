package stream

import (
	"math/rand"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// TestEvictionOrderMatchesLinearScan replays an ingest sequence that
// forces well over 1,000 evictions through the unit's indexed evictor and
// through a reference that scans its whole table for the argmin of
// (lastEpoch, Src, Sink) — the definition of the victim. The resident sets
// must agree after every record, which pins the victim sequence.
func TestEvictionOrderMatchesLinearScan(t *testing.T) {
	f := newTestFabric(t)
	cfg := DefaultConfig(5)
	const residentCap = 12
	flowCost := cfg.Reservoir.Volume*8 + flowStateOverheadBytes
	cfg.BudgetBytes = residentCap * flowCost
	u := newUnitState(&cfg, 0, f.table)

	ref := make(map[dataplane.FlowID]uint32) // flow -> lastEpoch
	var victims int
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 6000; i++ {
		// Epochs advance slowly with one epoch of lateness, over a flow
		// population much larger than the table: returning flows, ties on
		// lastEpoch and re-admissions of earlier victims all occur.
		epoch := uint32(i/40) + uint32(rng.Intn(2))
		flow := dataplane.FlowID{Src: topology.NodeID(rng.Intn(40)), Sink: topology.NodeID(100 + rng.Intn(3))}

		if _, ok := ref[flow]; !ok {
			for len(ref) >= residentCap {
				var victim dataplane.FlowID
				first := true
				for cand, last := range ref { //mars:mapiter-ok argmin under a strict total order
					if first || last < ref[victim] || last == ref[victim] &&
						(cand.Src < victim.Src || cand.Src == victim.Src && cand.Sink < victim.Sink) {
						victim, first = cand, false
					}
				}
				delete(ref, victim)
				victims++
			}
			ref[flow] = 0
		}
		if epoch > ref[flow] {
			ref[flow] = epoch
		}
		u.ingest(dataplane.RTRecord{Flow: flow, Epoch: epoch, Latency: netsim.Millisecond})

		if len(u.flows) != len(ref) || len(u.coldest) != len(ref) {
			t.Fatalf("record %d: %d resident flows (%d indexed), reference has %d", i, len(u.flows), len(u.coldest), len(ref))
		}
		for cand, last := range ref { //mars:mapiter-ok every entry is checked
			fs := u.flows[cand]
			if fs == nil || fs.lastEpoch != last || u.coldest[fs.heapIdx] != fs {
				t.Fatalf("record %d: after %d evictions flow %v is %+v, reference has it resident at epoch %d", i, victims, cand, fs, last)
			}
		}
	}
	if victims < 1000 {
		t.Fatalf("only %d evictions; the sequence must force at least 1000", victims)
	}
	if got := u.takeEvictions(); got != int64(victims) {
		t.Errorf("unit counted %d evictions, reference %d", got, victims)
	}
	if u.flowBytes != len(ref)*flowCost {
		t.Errorf("flowBytes = %d, want %d", u.flowBytes, len(ref)*flowCost)
	}
}
