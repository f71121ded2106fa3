package reservoir

import (
	"math/rand"
	"testing"
)

func fill(t *testing.T, seed int64, vals []float64) *Reservoir {
	t.Helper()
	r := New(DefaultConfig(), rand.New(rand.NewSource(seed)))
	for _, v := range vals {
		r.Input(v)
	}
	return r
}

func ramp(n int, base float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + float64(i)
	}
	return out
}

// Merging never exceeds the capacity (the byte budget: Volume entries of
// 8 bytes each), whatever the fill levels of the two sides.
func TestMergeRespectsVolumeBudget(t *testing.T) {
	cases := []struct{ na, nb int }{
		{10, 10},     // both small: concatenate
		{200, 3},     // full + sliver
		{200, 200},   // both full
		{3, 200},     // sliver + full
		{1000, 1000}, // both long-running
	}
	for _, c := range cases {
		a := fill(t, 1, ramp(c.na, 100))
		b := fill(t, 2, ramp(c.nb, 500))
		vol := DefaultConfig().Volume
		a.Merge(b)
		if a.Len() > vol {
			t.Fatalf("na=%d nb=%d: merged Len()=%d exceeds Volume=%d", c.na, c.nb, a.Len(), vol)
		}
		want := c.na + c.nb
		if want > vol {
			want = vol
		}
		// Both inputs were below Volume-sized only when na,nb small.
		if c.na <= vol && c.nb <= vol && a.Len() != min(c.na+c.nb, vol) {
			t.Fatalf("na=%d nb=%d: merged Len()=%d, want %d", c.na, c.nb, a.Len(), min(c.na+c.nb, vol))
		}
	}
}

// The merged sample must be drawn from the union of the two samples.
func TestMergeSampleFromUnion(t *testing.T) {
	a := fill(t, 3, ramp(400, 0))
	b := fill(t, 4, ramp(400, 10_000))
	union := map[float64]bool{}
	for _, v := range a.Snapshot() {
		union[v] = true
	}
	for _, v := range b.Snapshot() {
		union[v] = true
	}
	a.Merge(b)
	for _, v := range a.Snapshot() {
		if !union[v] {
			t.Fatalf("merged sample contains %v, absent from both inputs", v)
		}
	}
	// With equal weights roughly half the slots should come from each
	// side; require at least a presence of both.
	var low, high int
	for _, v := range a.Snapshot() {
		if v < 10_000 {
			low++
		} else {
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Fatalf("merge took everything from one side: low=%d high=%d", low, high)
	}
}

// Same seeds and same inputs → byte-identical merged sample, and the
// merged statistics remain consistent.
func TestMergeSeededDeterminism(t *testing.T) {
	run := func() ([]float64, float64, int64, int64) {
		a := fill(t, 7, ramp(300, 50))
		b := fill(t, 8, ramp(250, 900))
		a.Merge(b)
		return a.Snapshot(), a.Threshold(), a.Accepted, a.Rejected
	}
	s1, t1, acc1, rej1 := run()
	s2, t2, acc2, rej2 := run()
	if len(s1) != len(s2) {
		t.Fatalf("lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("sample[%d] differs: %v vs %v", i, s1[i], s2[i])
		}
	}
	if t1 != t2 {
		t.Fatalf("thresholds differ: %v vs %v", t1, t2)
	}
	if acc1 != acc2 || rej1 != rej2 {
		t.Fatalf("counters differ: %d/%d vs %d/%d", acc1, rej1, acc2, rej2)
	}
}

// Merging must not mutate the donor.
func TestMergeLeavesOtherIntact(t *testing.T) {
	a := fill(t, 5, ramp(300, 0))
	b := fill(t, 6, ramp(300, 1000))
	before := b.Snapshot()
	beforeAcc, beforeRej := b.Accepted, b.Rejected
	a.Merge(b)
	after := b.Snapshot()
	if len(before) != len(after) {
		t.Fatalf("donor length changed: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("donor sample[%d] changed: %v vs %v", i, before[i], after[i])
		}
	}
	if b.Accepted != beforeAcc || b.Rejected != beforeRej {
		t.Fatal("donor counters changed")
	}
}

func TestMergeCounters(t *testing.T) {
	a := fill(t, 9, ramp(50, 0))
	b := fill(t, 10, ramp(60, 100))
	wantAcc := a.Accepted + b.Accepted
	wantRej := a.Rejected + b.Rejected
	a.Merge(b)
	if a.Accepted != wantAcc || a.Rejected != wantRej {
		t.Fatalf("counters = %d/%d, want %d/%d", a.Accepted, a.Rejected, wantAcc, wantRej)
	}
}

func TestMergeNilAndEmpty(t *testing.T) {
	a := fill(t, 11, ramp(20, 0))
	before := a.Snapshot()
	a.Merge(nil)
	empty := New(DefaultConfig(), rand.New(rand.NewSource(12)))
	a.Merge(empty)
	after := a.Snapshot()
	if len(before) != len(after) {
		t.Fatalf("merge with nil/empty changed sample: %d vs %d", len(before), len(after))
	}
}

// The scratch-buffer refresh must produce the same statistics as a fresh
// computation (guards the allocation-free rewrite of refresh).
func TestRefreshScratchReuseStable(t *testing.T) {
	r := fill(t, 13, ramp(200, 10))
	t1 := r.Threshold()
	m1 := r.Median()
	// Force many dirty/refresh cycles over the same data shape.
	for i := 0; i < 50; i++ {
		r.Input(10 + float64(i%200))
	}
	r2 := fill(t, 13, ramp(200, 10))
	if r2.Threshold() != t1 || r2.Median() != m1 {
		t.Fatalf("recomputed stats differ: thr %v vs %v, med %v vs %v",
			r2.Threshold(), t1, r2.Median(), m1)
	}
}
