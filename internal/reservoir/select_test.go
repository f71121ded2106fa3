package reservoir

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedStats is refresh as it was before selection replaced its two full
// sorts: the reference the selected statistics must equal bit for bit.
func sortedStats(cfg Config, data []float64) (median, stddev, threshold float64) {
	n := len(data)
	if n < cfg.MinSamples {
		return 0, 0, cfg.DefaultThreshold
	}
	middle := func(sorted []float64) float64 {
		if n%2 == 1 {
			return sorted[n/2]
		}
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	median = middle(sorted)
	var sum, sum2 float64
	for _, v := range data {
		sum += v
	}
	mean := sum / float64(n)
	for _, v := range data {
		d := v - mean
		sum2 += d * d
	}
	stddev = math.Sqrt(sum2 / float64(n))
	scale := stddev
	if cfg.Scale == ScaleMAD {
		dev := make([]float64, 0, n)
		for _, v := range data {
			dev = append(dev, math.Abs(v-median))
		}
		sort.Float64s(dev)
		if scale = 1.4826 * middle(dev); scale == 0 {
			scale = stddev
		}
	}
	return median, stddev, median + cfg.C*scale
}

// TestSelectedStatsEqualSortedStats: 2,000 seeded sample sets of every
// size from below MinSamples to a full reservoir, in the shapes that break
// a selection (all equal, two values, sorted, reversed, heavy ties).
func TestSelectedStatsEqualSortedStats(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	shapes := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"random", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = rng.ExpFloat64() * 1e6
			}
			return s
		}},
		{"all-equal", func(n int) []float64 {
			s := make([]float64, n)
			v := float64(rng.Intn(1e6))
			for i := range s {
				s[i] = v
			}
			return s
		}},
		{"two-valued", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(100 + 900*rng.Intn(2))
			}
			return s
		}},
		{"sorted", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(i) * 1.5
			}
			return s
		}},
		{"reversed", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(n-i) * 1.5
			}
			return s
		}},
		{"heavy-ties", func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(rng.Intn(4)) * 250
			}
			return s
		}},
	}
	cfg := DefaultConfig()
	sets := 0
	for sets < 2000 {
		for _, sh := range shapes {
			n := cfg.MinSamples - 1 + rng.Intn(cfg.Volume-cfg.MinSamples+2)
			if sets%7 == 0 {
				n = cfg.Volume - sets%2 // full reservoirs, even and odd
			}
			data := sh.gen(n)
			for _, scale := range []Scale{ScaleMAD, ScaleStddev} {
				cfg.Scale = scale
				r := newTest(cfg, 1)
				for _, v := range data {
					r.Input(v) // below Volume every sample is retained, in order
				}
				med, sd, thr := sortedStats(cfg, data)
				if math.Float64bits(r.Median()) != math.Float64bits(med) ||
					math.Float64bits(r.Stddev()) != math.Float64bits(sd) ||
					math.Float64bits(r.Threshold()) != math.Float64bits(thr) {
					t.Fatalf("%s n=%d scale=%v: median/stddev/threshold %v/%v/%v, sorted reference %v/%v/%v",
						sh.name, n, scale, r.Median(), r.Stddev(), r.Threshold(), med, sd, thr)
				}
			}
			sets++
		}
	}
}
