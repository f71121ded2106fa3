package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.Precision() != 0.5 || c.Recall() != 0.5 || c.F1() != 0.5 {
		t.Errorf("P/R/F1 = %v/%v/%v", c.Precision(), c.Recall(), c.F1())
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("empty confusion should score 0")
	}
	c.Add(false, false)
	if c.F1() != 0 {
		t.Error("all-TN F1 should be 0")
	}
}

func TestF1KnownValue(t *testing.T) {
	// The paper's headline: 0.96 recall, 0.97 precision -> 0.97 F1 (rounded).
	c := Confusion{TP: 96, FN: 4, FP: 3}
	f1 := c.F1()
	if math.Abs(f1-0.9648) > 0.01 {
		t.Errorf("F1 = %v", f1)
	}
}

func TestExamScore(t *testing.T) {
	cases := []struct {
		rank int
		want float64
	}{
		{1, 0}, {2, 1}, {3, 2}, {5, 4},
		{6, ExamDefaultPenalty}, {0, ExamDefaultPenalty}, {100, ExamDefaultPenalty},
	}
	for _, c := range cases {
		if got := (RankResult{Rank: c.rank}).ExamScore(); got != c.want {
			t.Errorf("ExamScore(rank=%d) = %v, want %v", c.rank, got, c.want)
		}
	}
}

func TestLocalizationAggregates(t *testing.T) {
	var l Localization
	for _, r := range []int{1, 1, 2, 3, 6, 0} {
		l.Add(r)
	}
	if got := l.RecallAt(1); math.Abs(got-2.0/6) > 1e-12 {
		t.Errorf("R@1 = %v", got)
	}
	if got := l.RecallAt(2); math.Abs(got-3.0/6) > 1e-12 {
		t.Errorf("R@2 = %v", got)
	}
	if got := l.RecallAt(5); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("R@5 = %v", got)
	}
	want := (0.0 + 0 + 1 + 2 + 10 + 10) / 6
	if got := l.MeanExamScore(); math.Abs(got-want) > 1e-12 {
		t.Errorf("exam = %v, want %v", got, want)
	}
	if len(l.Results) != 6 {
		t.Errorf("trials = %d", len(l.Results))
	}
}

func TestLocalizationMerge(t *testing.T) {
	var a, b Localization
	a.Add(1)
	b.Add(0)
	a.Merge(&b)
	if len(a.Results) != 2 || a.RecallAt(1) != 0.5 {
		t.Errorf("merge: trials=%d R@1=%v", len(a.Results), a.RecallAt(1))
	}
}

func TestEmptyLocalization(t *testing.T) {
	var l Localization
	if l.RecallAt(5) != 0 || l.MeanExamScore() != 0 {
		t.Error("empty localization should score 0")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{4, 1, 3, 2})
	if c.Quantile(0) != 1 || c.Quantile(1) != 4 {
		t.Errorf("extremes = %v,%v", c.Quantile(0), c.Quantile(1))
	}
	if got := c.Quantile(0.5); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("median = %v", got)
	}
	if got := c.Quantile(1.0 / 3); math.Abs(got-2) > 1e-12 {
		t.Errorf("Quantile(1/3) = %v", got)
	}
	if got := c.Mean(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if len(c.sorted) != 4 {
		t.Errorf("sample size = %d", len(c.sorted))
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.Quantile(0.5) != 0 || c.Mean() != 0 {
		t.Error("empty CDF should return zeros")
	}
}

// Property: F1 lies between 0 and 1 and is at most min(P,R)*2/(...) sanity:
// bounded by both precision and recall's harmonic envelope.
func TestPropertyF1Bounds(t *testing.T) {
	f := func(tp, fp, fn, tn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), FN: int(fn), TN: int(tn)}
		f1 := c.F1()
		if f1 < 0 || f1 > 1 {
			return false
		}
		p, r := c.Precision(), c.Recall()
		return f1 <= p+1e-9 || f1 <= r+1e-9 // harmonic mean <= max needed: f1 <= min actually
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF.Quantile is monotone non-decreasing in q.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		for i := range vals {
			if math.IsNaN(vals[i]) {
				vals[i] = 0
			}
		}
		c := NewCDF(vals)
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return c.Quantile(a) <= c.Quantile(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: RecallAt is monotone in k.
func TestPropertyRecallMonotone(t *testing.T) {
	f := func(ranks []uint8) bool {
		var l Localization
		for _, r := range ranks {
			l.Add(int(r) % 8)
		}
		prev := 0.0
		for k := 1; k <= 6; k++ {
			cur := l.RecallAt(k)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
