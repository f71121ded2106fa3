// Package sbfl implements Spectrum-Based Fault Localization scoring
// (§4.4.3). MARS carries SBFL from the software-testing domain to the
// network: the "tests" are packets (abnormal set = failing, normal set =
// successful) and the "program elements" are path patterns (switches and
// links). The headline formula is the relative-risk score of Eq. (1);
// classic SBFL formulas (Ochiai, Tarantula, Jaccard, D*) are included for
// the ablation study.
package sbfl

import "math"

// Spectrum is the 2x2 contingency of one pattern over the packet sets:
//
//	Npf — abnormal (failing) packets whose path contains the pattern
//	Nps — normal (successful) packets whose path contains the pattern
//	Nnf — abnormal packets whose path does NOT contain the pattern
//	Nns — normal packets whose path does NOT contain the pattern
//
// The counts are in packets: rca fills them with sums of Alg. 2 weights
// (one telemetry record stands for PathCount packets).
type Spectrum struct {
	Npf, Nps, Nnf, Nns float64
}

// Formula computes a suspiciousness score from a spectrum. Higher means
// more suspicious.
type Formula func(Spectrum) float64

// RelativeRisk is Eq. (1): the abnormal proportion among packets carrying
// the pattern divided by the abnormal proportion among packets that do
// not. When every abnormal packet shares the pattern (Nnf = 0) the paper's
// variation adds 1 to the numerator's Nnf term to avoid division by zero.
func RelativeRisk(s Spectrum) float64 {
	if s.Npf+s.Nps == 0 {
		return 0
	}
	num := s.Npf / (s.Npf + s.Nps)
	nnf := s.Nnf
	if nnf == 0 {
		nnf = 1 // paper's variation: (Nnf+1)/(Nnf+Nns)
	}
	if nnf+s.Nns == 0 {
		return math.Inf(1)
	}
	den := nnf / (nnf + s.Nns)
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// Ochiai is the cosine-style formula widely regarded as the strongest
// classic SBFL ranker.
func Ochiai(s Spectrum) float64 {
	den := math.Sqrt((s.Npf + s.Nnf) * (s.Npf + s.Nps))
	if den == 0 {
		return 0
	}
	return s.Npf / den
}

// Tarantula is the original SBFL formula (Jones & Harrold).
func Tarantula(s Spectrum) float64 {
	totF := s.Npf + s.Nnf
	totS := s.Nps + s.Nns
	if totF == 0 {
		return 0
	}
	f := s.Npf / totF
	var p float64
	if totS > 0 {
		p = s.Nps / totS
	}
	if f+p == 0 {
		return 0
	}
	return f / (f + p)
}

// Jaccard measures overlap between the failing set and the covered set.
func Jaccard(s Spectrum) float64 {
	den := s.Npf + s.Nnf + s.Nps
	if den == 0 {
		return 0
	}
	return s.Npf / den
}

// DStar (D*, Wong et al.) with the customary exponent 2.
func DStar(s Spectrum) float64 {
	den := s.Nps + s.Nnf
	if den == 0 {
		if s.Npf == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return s.Npf * s.Npf / den
}

// Formulas enumerates the available scoring functions by name, relative
// risk first (MARS's default).
func Formulas() map[string]Formula {
	return map[string]Formula{
		"relative-risk": RelativeRisk,
		"ochiai":        Ochiai,
		"tarantula":     Tarantula,
		"jaccard":       Jaccard,
		"dstar":         DStar,
	}
}
