// Package reservoir implements MARS's self-adaptive anomaly detection
// (§4.3.1, Algorithm 1): a per-flow reservoir sample of latency values
// maintains a dynamic threshold θ = median + C·σ. A penalty factor
// α = exp(-c_o) shrinks the probability that data observed during a run of
// consecutive outliers enters the reservoir, so sustained anomalies cannot
// drag the threshold upward.
//
// Note on the published pseudocode: Algorithm 1 as printed resets c_o on
// an outlier and increments it otherwise, which contradicts the
// surrounding text ("as more continuous outliers are detected, the
// possibility that incoming data gets into the reservoir decreases
// severely") and would starve the reservoir of normal samples. PenaltyText
// implements the text's semantics (the default); PenaltyOff disables the
// factor entirely (the "reservoir w/o α" baseline of Fig. 8).
package reservoir

import (
	"math"
	"math/rand"
	"slices"
)

// PenaltyMode selects how the penalty factor α is driven.
type PenaltyMode uint8

const (
	// PenaltyText: c_o counts consecutive outliers (resets on normal data);
	// α = exp(-c_o). This is the behaviour the paper's prose describes.
	PenaltyText PenaltyMode = iota
	// PenaltyOff: α = 1 always (classic reservoir sampling).
	PenaltyOff
)

func (m PenaltyMode) String() string {
	switch m {
	case PenaltyText:
		return "penalty"
	case PenaltyOff:
		return "no-penalty"
	default:
		return "unknown"
	}
}

// Scale selects the deviation estimator in θ = median + C·scale.
type Scale uint8

const (
	// ScaleMAD uses 1.4826 x the median absolute deviation — robust: the
	// handful of anomaly samples that slip past the penalty factor cannot
	// inflate the threshold above the anomaly level. This is the default;
	// the paper's prose motivates the median for exactly this robustness.
	ScaleMAD Scale = iota
	// ScaleStddev uses the sample standard deviation, the paper's literal
	// θ = m + C·σ. Kept for the ablation bench: a few extreme outliers in
	// the reservoir can blow σ up and mask the anomaly.
	ScaleStddev
)

func (s Scale) String() string {
	if s == ScaleMAD {
		return "mad"
	}
	return "stddev"
}

// Config parameterizes a Reservoir.
type Config struct {
	// Volume v is the reservoir capacity (number of samples retained).
	Volume int
	// StaticProb p_s is the base replacement probability once full.
	StaticProb float64
	// C scales the deviation term in θ = median + C·σ.
	C float64
	// Scale selects σ's estimator (MAD by default, stddev for ablation).
	Scale Scale
	// Penalty selects the α behaviour.
	Penalty PenaltyMode
	// DefaultThreshold is used before the reservoir has enough data; the
	// paper sets it "at a relatively high level (e.g., 10 seconds) to
	// minimize false positives". Values are unitless here (callers feed
	// nanoseconds).
	DefaultThreshold float64
	// MinSamples is the fill level below which DefaultThreshold applies.
	MinSamples int
}

// DefaultConfig mirrors the paper's setup: θ = m + 3σ and a deliberately
// high default threshold for unknown flows.
func DefaultConfig() Config {
	return Config{
		Volume:           128,
		StaticProb:       0.5,
		C:                3,
		Penalty:          PenaltyText,
		DefaultThreshold: 10e9, // 10 s in ns
		MinSamples:       8,
	}
}

// Reservoir holds the latency sample of one flow and derives its dynamic
// threshold. It is not safe for concurrent use; the controller owns one
// reservoir per flow.
type Reservoir struct {
	cfg  Config
	rng  *rand.Rand
	data []float64
	co   int // consecutive-outlier count (PenaltyText)

	// sorted is empty or data in ascending order. refresh sorts it once,
	// the first time the reservoir reaches MinSamples (most flows in a
	// bounded table are evicted before they do); from then on Input keeps it
	// in step by binary-search insertion, so the median is a read and the
	// MAD a merge walk, and a full reservoir refreshes without allocating.
	sorted []float64

	// cached statistics, invalidated on mutation; σ is summed only when
	// read (haveStddev), since the MAD scale rarely needs it.
	dirty      bool
	haveStddev bool
	median     float64
	stddev     float64
	threshold  float64

	// Observed counters for diagnostics.
	Accepted int64
	Rejected int64
}

// New creates an empty reservoir. rng must not be shared across goroutines.
func New(cfg Config, rng *rand.Rand) *Reservoir {
	if cfg.Volume <= 0 {
		panic("reservoir: volume must be positive")
	}
	if cfg.StaticProb <= 0 || cfg.StaticProb > 1 {
		panic("reservoir: static probability must be in (0,1]")
	}
	return &Reservoir{cfg: cfg, rng: rng, data: make([]float64, 0, cfg.Volume), dirty: true}
}

// Reset empties the reservoir back to exactly the state New returns —
// same Config and RNG, no RNG draw, no sorted sample — keeping both slabs,
// so a bounded table can hand an evicted flow's reservoir to the flow that
// replaces it.
func (r *Reservoir) Reset() {
	*r = Reservoir{
		cfg:    r.cfg,
		rng:    r.rng,
		data:   r.data[:0],
		dirty:  true,
		sorted: r.sorted[:0],
	}
}

// refresh recomputes median and threshold, and σ only if the threshold
// needs it.
func (r *Reservoir) refresh() {
	if !r.dirty {
		return
	}
	r.dirty = false
	n := len(r.data)
	if n < r.cfg.MinSamples {
		r.median, r.stddev, r.haveStddev = 0, 0, true
		r.threshold = r.cfg.DefaultThreshold
		return
	}
	if len(r.sorted) == 0 {
		r.sorted = append(r.sorted, r.data...)
		slices.Sort(r.sorted)
	}
	s, k := r.sorted, n/2
	r.median = s[k]
	if n%2 == 0 {
		r.median = (s[k-1] + s[k]) / 2
	}
	r.haveStddev = false

	var scale float64
	if r.cfg.Scale == ScaleMAD {
		scale = 1.4826 * r.mad()
	}
	if scale == 0 {
		// ScaleStddev, or a degenerate MAD (more than half the samples
		// identical): the classical estimator, so the threshold is not the
		// bare median.
		scale = r.sigma()
	}
	r.threshold = r.median + r.cfg.C*scale
}

// mad returns the median of |v − median| over the sample. Left of the
// median's position the deviations are median − s[i], growing leftward;
// from it on they are s[j] − median, growing rightward. A merge walk
// outward from the median therefore visits them in ascending order, and
// since IEEE subtraction is sign-symmetric each equals math.Abs(v − median)
// bit for bit.
func (r *Reservoir) mad() float64 {
	s, m := r.sorted, r.median
	n, k := len(s), len(s)/2
	lo, hi := k-1, k
	var prev, cur float64
	for range k + 1 {
		prev = cur
		if hi == n || lo >= 0 && m-s[lo] <= s[hi]-m {
			cur = m - s[lo]
			lo--
		} else {
			cur = s[hi] - m
			hi++
		}
	}
	if n%2 == 1 {
		return cur
	}
	return (prev + cur) / 2
}

// sigma returns the population standard deviation, summed over data in
// insertion order (the summation order is part of its bits) the first time
// it is asked for after a refresh.
func (r *Reservoir) sigma() float64 {
	if r.haveStddev {
		return r.stddev
	}
	var sum, sum2 float64
	for _, v := range r.data {
		sum += v
	}
	mean := sum / float64(len(r.data))
	for _, v := range r.data {
		d := v - mean
		sum2 += d * d
	}
	r.stddev, r.haveStddev = math.Sqrt(sum2/float64(len(r.data))), true
	return r.stddev
}

// Threshold returns the current dynamic threshold θ.
func (r *Reservoir) Threshold() float64 {
	r.refresh()
	return r.threshold
}

// Input feeds one latency observation (Algorithm 1) and reports whether it
// was classified as an outlier against the threshold in force *before*
// this sample was considered for insertion.
func (r *Reservoir) Input(l float64) bool {
	outlier := l > r.Threshold()

	if outlier && r.cfg.Penalty == PenaltyText {
		r.co++
	} else {
		r.co = 0
	}

	if len(r.data) < r.cfg.Volume {
		r.data = append(r.data, l)
		if len(r.sorted) > 0 {
			r.sorted = insertSorted(r.sorted, l)
		}
		r.dirty = true
		r.Accepted++
		return outlier
	}
	// α = exp(−c_o) is read only here: a reservoir still filling admits
	// every sample.
	alpha := math.Exp(-float64(r.co))
	if r.rng.Float64() < alpha*r.cfg.StaticProb {
		idx := r.rng.Intn(len(r.data))
		if len(r.sorted) > 0 {
			i, _ := slices.BinarySearch(r.sorted, r.data[idx])
			r.sorted = insertSorted(slices.Delete(r.sorted, i, i+1), l)
		}
		r.data[idx] = l
		r.dirty = true
		r.Accepted++
	} else {
		r.Rejected++
	}
	return outlier
}

// insertSorted inserts v into the ascending s at its binary-searched place.
func insertSorted(s []float64, v float64) []float64 {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(s, i, v)
}

// StaticDetector is the fixed-threshold strawman of Fig. 8: anything above
// Threshold is an anomaly.
type StaticDetector struct {
	Threshold float64
}

// Input implements the same reporting contract as Reservoir.Input.
func (s *StaticDetector) Input(l float64) bool { return l > s.Threshold }

// Detector abstracts the dynamic and static classifiers for the Fig. 8
// comparison harness.
type Detector interface {
	// Input observes one sample and reports whether it is anomalous.
	Input(l float64) bool
}

var (
	_ Detector = (*Reservoir)(nil)
	_ Detector = (*StaticDetector)(nil)
)
