package stream

import (
	"math"
	"math/rand"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// TestEvictionOrderMatchesLinearScan replays ingest sequences that force
// well over 1,000 evictions through the unit's indexed evictor and through
// a reference that scans its whole table for the argmin of (lastEpoch,
// Src, Sink) — the definition of the victim. The resident sets must agree
// after every record, which pins the victim sequence.
func TestEvictionOrderMatchesLinearScan(t *testing.T) {
	t.Run("slow", func(t *testing.T) {
		rng := rand.New(rand.NewSource(77))
		var recs []dataplane.RTRecord
		for i := 0; i < 6000; i++ {
			// Epochs advance slowly with one epoch of lateness, over a flow
			// population much larger than the table: returning flows, ties
			// on lastEpoch and re-admissions of earlier victims all occur.
			epoch := uint32(i/40) + uint32(rng.Intn(2))
			recs = append(recs, evictRec(rng.Intn(40), 100+rng.Intn(3), epoch))
		}
		replayAgainstScan(t, recs)
	})
	t.Run("idle", func(t *testing.T) {
		rng := rand.New(rand.NewSource(78))
		var recs []dataplane.RTRecord
		epoch := uint32(0)
		for i := 0; i < 6000; i++ {
			switch {
			case rng.Intn(300) == 0:
				epoch += 1000 + uint32(rng.Intn(1000)) // every flow idles for many epochs
			case rng.Intn(20) == 0:
				epoch++
			}
			// Hot flows stay resident and keep returning, so their heap
			// keys fall far behind; cold ones arrive, idle and are evicted.
			src := rng.Intn(10)
			if rng.Intn(4) == 0 {
				src = 10 + rng.Intn(60)
			}
			e := epoch
			if e > 0 && rng.Intn(5) == 0 {
				e-- // late by one epoch
			}
			recs = append(recs, evictRec(src, 100, e))
		}
		// The top of the uint32 range: one record at 2³²−1 among late
		// records of the epoch before it, new flows and returning ones.
		for i := 0; i < 60; i++ {
			e := uint32(math.MaxUint32 - 1)
			if i == 20 {
				e = math.MaxUint32
			}
			recs = append(recs, evictRec(rng.Intn(30), 100, e))
		}
		if resifts := replayAgainstScan(t, recs); resifts < 5 {
			t.Fatalf("at most %d stale roots re-sifted by one eviction; the sequence must force at least 5", resifts)
		}
	})
}

func evictRec(src, sink int, epoch uint32) dataplane.RTRecord {
	return dataplane.RTRecord{
		Flow:    dataplane.FlowID{Src: topology.NodeID(src), Sink: topology.NodeID(sink)},
		Epoch:   epoch,
		Latency: netsim.Millisecond,
	}
}

// replayAgainstScan feeds recs to a unit with room for 12 flows and to the
// scanning reference, checks the heap's integrity after every record, and
// returns the most stale roots one eviction had to re-sift.
func replayAgainstScan(t *testing.T, recs []dataplane.RTRecord) (maxResifts int) {
	t.Helper()
	cfg := DefaultConfig(5)
	const residentCap = 12
	flowCost := cfg.Reservoir.Volume*8 + flowStateOverheadBytes
	cfg.BudgetBytes = residentCap * flowCost
	u := newUnitState(&cfg, 0)

	ref := make(map[dataplane.FlowID]uint32) // flow -> lastEpoch
	var victims int
	for i, rec := range recs {
		flow, epoch := rec.Flow, rec.Epoch
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
				// Every heap key below the victim's true key must reach
				// the root, and be re-sifted there, before the victim does.
				v := &flowState{flow: victim, heapEpoch: ref[victim]}
				resifts := 0
				for _, fs := range u.coldest {
					if colder(fs, v) {
						resifts++
					}
				}
				maxResifts = max(maxResifts, resifts)
				delete(ref, victim)
				victims++
			}
			ref[flow] = 0
		}
		if epoch > ref[flow] {
			ref[flow] = epoch
		}
		u.ingest(rec)

		if u.flows.Len() != len(ref) || len(u.coldest) != len(ref) {
			t.Fatalf("record %d: %d resident flows (%d indexed), reference has %d", i, u.flows.Len(), len(u.coldest), len(ref))
		}
		for cand, last := range ref { //mars:mapiter-ok every entry is checked
			fs := u.resident(cand)
			if fs == nil || fs.lastEpoch != last {
				t.Fatalf("record %d: after %d evictions flow %v is %+v, reference has it resident at epoch %d", i, victims, cand, fs, last)
			}
		}
		checkHeap(t, i, u)
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
	return maxResifts
}

// checkHeap asserts the lazy heap's integrity: each resident flow sits in
// it exactly once, no key is above its flow's lastEpoch, and the keys are
// in heap order.
func checkHeap(t *testing.T, rec int, u *unitState) {
	t.Helper()
	seen := make(map[*flowState]bool, len(u.coldest))
	for i, fs := range u.coldest {
		if seen[fs] || u.resident(fs.flow) != fs {
			t.Fatalf("record %d: heap slot %d holds %+v twice or not resident", rec, i, fs)
		}
		seen[fs] = true
		if fs.heapEpoch > fs.lastEpoch {
			t.Fatalf("record %d: flow %v keyed at epoch %d, above its lastEpoch %d", rec, fs.flow, fs.heapEpoch, fs.lastEpoch)
		}
		if parent := (i - 1) / 2; i > 0 && colder(fs, u.coldest[parent]) {
			t.Fatalf("record %d: heap slot %d is colder than its parent %d", rec, i, parent)
		}
	}
}
