package reservoir

import (
	"math"
	"math/rand"
	"slices"
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

// checkSortedStats fails unless r's statistics equal the sort-based
// reference over its sample bit for bit, and its sorted sample, once built,
// is that sample in ascending order. θ is read first, as Input reads it.
func checkSortedStats(t *testing.T, cfg Config, r *Reservoir, step int) {
	t.Helper()
	thr, med, sd := r.Threshold(), r.Median(), r.Stddev()
	wmed, wsd, wthr := sortedStats(cfg, r.data)
	if math.Float64bits(med) != math.Float64bits(wmed) ||
		math.Float64bits(sd) != math.Float64bits(wsd) ||
		math.Float64bits(thr) != math.Float64bits(wthr) {
		t.Fatalf("%+v step %d n=%d: median/stddev/threshold %v/%v/%v, sorted reference %v/%v/%v",
			cfg, step, len(r.data), med, sd, thr, wmed, wsd, wthr)
	}
	if len(r.sorted) > 0 {
		want := slices.Clone(r.data)
		slices.Sort(want)
		if !slices.Equal(r.sorted, want) {
			t.Fatalf("%+v step %d: sorted sample %v, want %v", cfg, step, r.sorted, want)
		}
	}
}

// TestReplacementStatsEqualSortedStats drives reservoirs to twenty times
// their volume, so most samples take the replacement branch (one value out
// of the sorted sample, one in), under every PenaltyMode and Scale, with
// ties, outlier runs that engage the penalty, and a Reset midway; after
// every Input the statistics must equal the sort-based reference.
func TestReplacementStatsEqualSortedStats(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, penalty := range []PenaltyMode{PenaltyText, PenaltyOff} {
		for _, scale := range []Scale{ScaleMAD, ScaleStddev} {
			for trial := 0; trial < 6; trial++ {
				cfg := DefaultConfig()
				cfg.Penalty, cfg.Scale = penalty, scale
				cfg.Volume = 1 + rng.Intn(64)
				cfg.MinSamples = 1 + rng.Intn(cfg.Volume+1)
				r := newTest(cfg, rng.Int63())
				levels := 1 + rng.Intn(5) // few distinct values: ties
				steps := 20 * cfg.Volume
				for step := 0; step < steps; step++ {
					if step == steps/2 {
						r.Reset()
					}
					var v float64
					switch u := rng.Intn(10); {
					case u < 5:
						v = float64(rng.Intn(levels)) * 250.3
					case u < 9:
						v = rng.ExpFloat64() * 1e6
					default:
						v = 1e9 + rng.Float64() // an outlier
					}
					r.Input(v)
					checkSortedStats(t, cfg, r, step)
				}
			}
		}
	}
}

// FuzzReservoirStats holds every Input to the sort-based reference. raw[0]
// picks the configuration (bits 0-1 mod 2 PenaltyMode, bit 2 Scale, bits 3-7
// Volume-1), raw[1] MinSamples, raw[2] the RNG seed; each further byte is
// one sample b/3, or a Reset if it is 0xFF. The seed corpus is under
// testdata/fuzz/FuzzReservoirStats.
func FuzzReservoirStats(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			return
		}
		cfg := DefaultConfig()
		cfg.Penalty = PenaltyMode((raw[0] & 3) % 2)
		cfg.Scale = Scale((raw[0] >> 2) & 1)
		cfg.Volume = 1 + int(raw[0]>>3)
		cfg.MinSamples = 1 + int(raw[1])%(cfg.Volume+1)
		r := newTest(cfg, int64(raw[2]))
		samples := raw[3:]
		if len(samples) > 4096 {
			samples = samples[:4096]
		}
		for step, b := range samples {
			if b == 0xFF {
				r.Reset()
				continue
			}
			r.Input(float64(b) / 3)
			checkSortedStats(t, cfg, r, step)
		}
	})
}
