package reservoir

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func newTest(cfg Config, seed int64) *Reservoir {
	return New(cfg, rand.New(rand.NewSource(seed)))
}

func TestDefaultThresholdBeforeFill(t *testing.T) {
	cfg := DefaultConfig()
	r := newTest(cfg, 1)
	if got := r.Threshold(); got != cfg.DefaultThreshold {
		t.Errorf("empty threshold = %v, want default %v", got, cfg.DefaultThreshold)
	}
	// Below MinSamples the default still applies.
	for i := 0; i < cfg.MinSamples-1; i++ {
		r.Input(100)
	}
	if got := r.Threshold(); got != cfg.DefaultThreshold {
		t.Errorf("underfilled threshold = %v, want default", got)
	}
	r.Input(100)
	if got := r.Threshold(); got == cfg.DefaultThreshold {
		t.Error("threshold should become dynamic at MinSamples")
	}
}

// median and stddev read the sample median (0 until MinSamples is
// reached) and the population standard deviation.
func median(r *Reservoir) float64 { r.refresh(); return r.median }
func stddev(r *Reservoir) float64 { r.refresh(); return r.sigma() }

func TestMedianAndStddev(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinSamples = 1
	r := newTest(cfg, 1)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		r.Input(v)
	}
	if m := median(r); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	want := math.Sqrt(2) // population stddev of 1..5
	if s := stddev(r); math.Abs(s-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s, want)
	}
	// Even count median.
	r2 := newTest(cfg, 1)
	for _, v := range []float64{1, 2, 3, 4} {
		r2.Input(v)
	}
	if m := median(r2); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
}

func TestDetectsSpike(t *testing.T) {
	cfg := DefaultConfig()
	r := newTest(cfg, 7)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		if r.Input(1000 + 50*rng.NormFloat64()) {
			// occasional tail outliers are acceptable
			continue
		}
	}
	if !r.Input(5000) {
		t.Error("5x spike not flagged")
	}
	if r.Input(1010) {
		t.Error("normal sample flagged after spike")
	}
}

func TestThresholdTracksLoadShift(t *testing.T) {
	// The motivating property of Fig. 5: when the baseline rises slowly,
	// the dynamic threshold follows and stops flagging the new normal.
	cfg := DefaultConfig()
	cfg.Volume = 64
	r := newTest(cfg, 3)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		r.Input(1000 + 30*rng.NormFloat64())
	}
	low := r.Threshold()
	// Gradual rise to 3000 — feed plenty of samples so replacement catches up.
	for i := 0; i < 3000; i++ {
		level := 1000 + 2000*math.Min(1, float64(i)/1500)
		r.Input(level + 30*rng.NormFloat64())
	}
	high := r.Threshold()
	if high < low*1.5 {
		t.Errorf("threshold did not track rise: %v -> %v", low, high)
	}
	if r.Input(3000 + 40) { // well within 3σ of the new normal
		t.Error("new-normal sample still flagged")
	}
}

func TestPenaltyResistsOutlierFlood(t *testing.T) {
	// With the penalty factor, a burst of consecutive outliers must not
	// drag the threshold up (much); without it, the threshold inflates.
	run := func(mode PenaltyMode) (before, after float64) {
		cfg := DefaultConfig()
		cfg.Volume = 64
		cfg.Penalty = mode
		r := newTest(cfg, 5)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 500; i++ {
			r.Input(1000 + 20*rng.NormFloat64())
		}
		before = r.Threshold()
		for i := 0; i < 500; i++ {
			r.Input(8000 + 100*rng.NormFloat64()) // sustained anomaly
		}
		after = r.Threshold()
		return
	}
	_, withPenalty := run(PenaltyText)
	_, without := run(PenaltyOff)
	if withPenalty >= without {
		t.Errorf("penalty threshold %v not below no-penalty %v", withPenalty, without)
	}
	// With penalty the threshold should stay well under the anomaly level,
	// so the anomaly keeps being detected.
	if withPenalty > 6000 {
		t.Errorf("penalty threshold %v drifted into anomaly range", withPenalty)
	}
	if without < 6000 {
		t.Errorf("no-penalty threshold %v should have inflated (sanity)", without)
	}
}

func TestReservoirCapacityBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Volume = 16
	r := newTest(cfg, 1)
	for i := 0; i < 1000; i++ {
		r.Input(float64(i))
	}
	if len(r.data) != 16 {
		t.Errorf("len = %d, want 16", len(r.data))
	}
}

func TestStaticDetector(t *testing.T) {
	s := &StaticDetector{Threshold: 100}
	if s.Input(99) || !s.Input(101) {
		t.Error("static detector misclassified")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Volume: 0, StaticProb: 0.5},
		{Volume: 8, StaticProb: 0},
		{Volume: 8, StaticProb: 1.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v: expected panic", cfg)
				}
			}()
			New(cfg, rand.New(rand.NewSource(1)))
		}()
	}
}

// Property: the reservoir never exceeds its volume and the threshold is
// always >= the median once dynamic.
func TestPropertyInvariants(t *testing.T) {
	f := func(seed int64, vals []float64) bool {
		cfg := DefaultConfig()
		cfg.Volume = 32
		r := newTest(cfg, seed)
		for _, v := range vals {
			r.Input(math.Abs(v))
			if len(r.data) > cfg.Volume {
				return false
			}
			if len(r.data) >= cfg.MinSamples && r.Threshold() < median(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot contents are always values that were fed in.
func TestPropertySnapshotSubsetOfInputs(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		cfg := DefaultConfig()
		cfg.Volume = 16
		r := newTest(cfg, seed)
		seen := map[float64]bool{}
		for _, v := range raw {
			x := float64(v)
			seen[x] = true
			r.Input(x)
		}
		for _, v := range r.data {
			if !seen[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResetRestoresNewState: Reset leaves a used reservoir in exactly the
// state New builds (the emptied sorted slab aside, which holds no values),
// draws nothing from the RNG, and the reservoir then behaves as a new one.
func TestResetRestoresNewState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Volume = 16
	feed := func(r *Reservoir, n int) []float64 {
		var thr []float64
		for i := 0; i < n; i++ {
			r.Input(float64(1000 + (i*37)%91))
			thr = append(thr, r.Threshold())
		}
		r.Input(1e12) // end inside an outlier run
		return thr
	}

	// used and twin sit at the same RNG position; only used is reset.
	used, twin, fresh := newTest(cfg, 9), newTest(cfg, 9), newTest(cfg, 9)
	feed(used, 200)
	feed(twin, 200)
	used.Reset()

	got, want := *used, *fresh
	if len(got.sorted) != 0 {
		t.Fatalf("Reset kept %d sorted values", len(got.sorted))
	}
	got.sorted, got.rng = nil, nil
	want.sorted, want.rng = nil, nil
	if !reflect.DeepEqual(got, want) || cap(used.data) != cap(fresh.data) {
		t.Fatalf("Reset state = %+v, New state = %+v", got, want)
	}
	if used.rng.Int63() != twin.rng.Int63() {
		t.Error("Reset consumed an RNG draw")
	}
	used.rng.Seed(4)
	fresh.rng.Seed(4)
	if !reflect.DeepEqual(feed(used, 200), feed(fresh, 200)) {
		t.Error("a reset reservoir diverges from a new one on the same input and RNG stream")
	}
}

// Two reservoirs filled from the same seed and samples read the same
// statistics, whatever the first is fed afterwards: refreshes share no
// state between reservoirs.
func TestRefreshScratchReuseStable(t *testing.T) {
	fill := func() *Reservoir {
		r := newTest(DefaultConfig(), 13)
		for i := 0; i < 200; i++ {
			r.Input(10 + float64(i))
		}
		return r
	}
	r := fill()
	t1 := r.Threshold()
	m1 := median(r)
	// Force many dirty/refresh cycles over the same data shape.
	for i := 0; i < 50; i++ {
		r.Input(10 + float64(i%200))
	}
	r2 := fill()
	if r2.Threshold() != t1 || median(r2) != m1 {
		t.Fatalf("recomputed stats differ: thr %v vs %v, med %v vs %v",
			r2.Threshold(), t1, median(r2), m1)
	}
}

// TestPinnedInputSequence pins Algorithm 1 end to end in every penalty
// mode: a seeded 10,000-sample sequence of normal latencies broken by
// outlier runs of random length. The outlier verdicts (folded with
// FNV-1a), the acceptance counters, the bits of the final θ and the RNG
// value after the run are the values recorded before α moved into the
// full-reservoir branch; any change to which draws Input makes, or to the
// bits it compares, moves one of them.
func TestPinnedInputSequence(t *testing.T) {
	type pin struct {
		outliers           int
		verdicts           uint64
		accepted, rejected int64
		threshold          uint64
		nextDraw           int64
	}
	want := map[PenaltyMode]pin{
		PenaltyText: {1833, 0x94b5957433502dba, 4146, 5854, 0x409079794fcfca6b, 6227954901704815788},
		PenaltyOff:  {1822, 0x9f346771f5d0b1e1, 5006, 4994, 0x4090b8a12dee95ae, 3071881423211951125},
	}
	for _, mode := range []PenaltyMode{PenaltyText, PenaltyOff} {
		cfg := DefaultConfig()
		cfg.Volume = 64
		cfg.Penalty = mode
		rng := rand.New(rand.NewSource(101))
		r := New(cfg, rng)
		in := rand.New(rand.NewSource(202))
		h := fnv.New64a()
		var got pin
		for i, run := 0, 0; i < 10000; i++ {
			if run == 0 && in.Intn(50) == 0 {
				run = 1 + in.Intn(20)
			}
			l := 1000 + 20*in.NormFloat64()
			if run > 0 {
				l, run = 8000+100*in.NormFloat64(), run-1
			}
			verdict := byte(0)
			if r.Input(l) {
				verdict = 1
				got.outliers++
			}
			h.Write([]byte{verdict})
		}
		got.verdicts = h.Sum64()
		got.accepted, got.rejected = r.Accepted, r.Rejected
		got.threshold = math.Float64bits(r.Threshold())
		got.nextDraw = rng.Int63()
		if got != want[mode] {
			t.Errorf("%v: got %#v, want %#v", mode, got, want[mode])
		}
	}
}
