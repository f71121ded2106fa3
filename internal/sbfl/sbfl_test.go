package sbfl

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRelativeRiskBasic(t *testing.T) {
	// 10 abnormal packets: 8 contain the pattern. 90 normal: 10 contain it.
	s := Spectrum{Npf: 8, Nps: 10, Nnf: 2, Nns: 80}
	// num = 8/18, den = 2/82 -> score = (8/18)/(2/82) ≈ 18.22
	want := (8.0 / 18.0) / (2.0 / 82.0)
	if got := RelativeRisk(s); math.Abs(got-want) > 1e-12 {
		t.Errorf("RelativeRisk = %v, want %v", got, want)
	}
}

func TestRelativeRiskZeroNnfVariation(t *testing.T) {
	// All abnormal packets share the pattern: Nnf = 0 triggers the paper's
	// (Nnf+1) variation rather than dividing by zero.
	s := Spectrum{Npf: 5, Nps: 5, Nnf: 0, Nns: 50}
	want := (5.0 / 10.0) / (1.0 / 51.0)
	got := RelativeRisk(s)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("RelativeRisk = %v, want finite", got)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RelativeRisk = %v, want %v", got, want)
	}
}

func TestRelativeRiskNoCoverage(t *testing.T) {
	if got := RelativeRisk(Spectrum{Nnf: 3, Nns: 7}); got != 0 {
		t.Errorf("uncovered pattern score = %v, want 0", got)
	}
}

func TestGuiltyPatternOutscoresInnocent(t *testing.T) {
	// The faulty switch appears in all abnormal paths and few normal ones;
	// an innocent neighbor appears in some of each.
	guilty := Spectrum{Npf: 20, Nps: 5, Nnf: 0, Nns: 95}
	innocent := Spectrum{Npf: 8, Nps: 40, Nnf: 12, Nns: 60}
	for name, f := range Formulas() {
		if f(guilty) <= f(innocent) {
			t.Errorf("%s: guilty %v <= innocent %v", name, f(guilty), f(innocent))
		}
	}
}

func TestOchiaiKnownValue(t *testing.T) {
	s := Spectrum{Npf: 4, Nps: 0, Nnf: 0, Nns: 6}
	if got := Ochiai(s); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect Ochiai = %v, want 1", got)
	}
	if got := Ochiai(Spectrum{}); got != 0 {
		t.Errorf("empty Ochiai = %v", got)
	}
}

func TestTarantulaRange(t *testing.T) {
	s := Spectrum{Npf: 3, Nps: 3, Nnf: 3, Nns: 3}
	if got := Tarantula(s); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("balanced Tarantula = %v, want 0.5", got)
	}
	if got := Tarantula(Spectrum{Nps: 5, Nns: 5}); got != 0 {
		t.Errorf("no-failure Tarantula = %v", got)
	}
}

func TestJaccardAndDStar(t *testing.T) {
	s := Spectrum{Npf: 6, Nps: 2, Nnf: 4, Nns: 8}
	if got := Jaccard(s); math.Abs(got-6.0/12.0) > 1e-12 {
		t.Errorf("Jaccard = %v", got)
	}
	if got := DStar(s); math.Abs(got-36.0/6.0) > 1e-12 {
		t.Errorf("DStar = %v", got)
	}
	if got := DStar(Spectrum{Npf: 3}); !math.IsInf(got, 1) {
		t.Errorf("DStar with zero denominator = %v, want +Inf", got)
	}
	if got := DStar(Spectrum{}); got != 0 {
		t.Errorf("DStar empty = %v, want 0", got)
	}
}

// Property: all formulas return non-negative, non-NaN scores on valid
// spectra.
func TestPropertyScoresNonNegative(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		s := Spectrum{Npf: float64(a), Nps: float64(b), Nnf: float64(c), Nns: float64(d)}
		for _, formula := range Formulas() {
			v := formula(s)
			if math.IsNaN(v) || v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: increasing Npf (holding others fixed) never lowers the
// relative-risk score (monotonicity in evidence of guilt).
func TestPropertyRelativeRiskMonotone(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		s := Spectrum{Npf: float64(a), Nps: float64(b), Nnf: float64(c) + 1, Nns: float64(d)}
		s2 := s
		s2.Npf++
		return RelativeRisk(s2) >= RelativeRisk(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
