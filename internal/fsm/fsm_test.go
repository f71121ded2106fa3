package fsm

import (
	"math/rand"
	"reflect"
	"testing"
)

// paperExample is §4.4.2's worked example: four copies of <s3,s2,s4> and
// two of <s6,s2,s7>, max length 2, min relative support 50%.
func paperExample() Dataset {
	db := Dataset{}
	for i := 0; i < 4; i++ {
		db = append(db, Sequence{3, 2, 4})
	}
	for i := 0; i < 2; i++ {
		db = append(db, Sequence{6, 2, 7})
	}
	return db
}

func patternsToMap(ps []Pattern) map[string]int {
	m := map[string]int{}
	for _, p := range ps {
		m[seqKey(p.Items)] = p.Support
	}
	return m
}

func TestPaperExampleAllMiners(t *testing.T) {
	db := paperExample()
	params := Params{MinRelSupport: 0.5, MaxLen: 2}
	want := map[string]int{
		seqKey([]Item{2}):    6,
		seqKey([]Item{2, 4}): 4,
		seqKey([]Item{3}):    4,
		seqKey([]Item{3, 2}): 4,
		seqKey([]Item{4}):    4,
	}
	for _, m := range append(All(), NaiveMiner{}) {
		got := patternsToMap(m.Mine(db, params))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v patterns, want the paper's 5", m.Name(), len(got))
			for k, v := range got {
				t.Logf("  %s: %v -> %d", m.Name(), []byte(k), v)
			}
		}
	}
}

func TestPaperExampleExcludesNonLink(t *testing.T) {
	// <s3,s4> is a gap subsequence of <s3,s2,s4> with support 4, but MARS
	// must not report it: it is not a link (contiguous pair).
	db := paperExample()
	got := patternsToMap(NewPrefixSpan().Mine(db, Params{MinRelSupport: 0.5, MaxLen: 2}))
	if _, bad := got[seqKey([]Item{3, 4})]; bad {
		t.Error("contiguous mining reported non-adjacent pair <s3,s4>")
	}
}

func TestTopPatternIsS2(t *testing.T) {
	db := paperExample()
	ps := NewPrefixSpan().Mine(db, Params{MinRelSupport: 0.5, MaxLen: 2})
	if len(ps) == 0 || len(ps[0].Items) != 1 || ps[0].Items[0] != 2 || ps[0].Support != 6 {
		t.Fatalf("top pattern = %v, want <s2>:6", ps[0])
	}
}

func TestEmptyAndTinyDatasets(t *testing.T) {
	for _, m := range All() {
		if got := m.Mine(nil, Params{MaxLen: 2}); len(got) != 0 {
			t.Errorf("%s: empty db returned %d patterns", m.Name(), len(got))
		}
		got := m.Mine(Dataset{{7}}, Params{MaxLen: 2})
		if len(got) != 1 || got[0].Support != 1 {
			t.Errorf("%s: single-item db = %v", m.Name(), got)
		}
	}
}

func TestMaxLenUnlimited(t *testing.T) {
	db := Dataset{{1, 2, 3}, {1, 2, 3}}
	ps := NewPrefixSpan().Mine(db, Params{MinRelSupport: 1})
	m := patternsToMap(ps)
	if m[seqKey([]Item{1, 2, 3})] != 2 {
		t.Errorf("full-length pattern missing: %v", ps)
	}
}

func TestRepeatedItemsWithinSequence(t *testing.T) {
	// Support counts sequences, not occurrences.
	db := Dataset{{5, 5, 5}, {5, 1}}
	for _, m := range append(All(), NaiveMiner{}) {
		ps := patternsToMap(m.Mine(db, Params{MaxLen: 2}))
		if ps[seqKey([]Item{5})] != 2 {
			t.Errorf("%s: support of <5> = %d, want 2", m.Name(), ps[seqKey([]Item{5})])
		}
		if ps[seqKey([]Item{5, 5})] != 1 {
			t.Errorf("%s: support of <5,5> = %d, want 1", m.Name(), ps[seqKey([]Item{5, 5})])
		}
	}
}

// randomPaths builds a dataset that looks like MARS's abnormal sets:
// short switch sequences (length 1-6) over a small alphabet.
func randomPaths(rng *rand.Rand, n int) Dataset {
	db := make(Dataset, n)
	for i := range db {
		l := 1 + rng.Intn(6)
		seq := make(Sequence, l)
		for j := range seq {
			seq[j] = Item(rng.Intn(12))
		}
		db[i] = seq
	}
	return db
}

func TestCrossValidationContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	// Beside the small alphabet MARS's sets look like: the same alphabet
	// shifted to 1<<20 (a table counter indexes by item - lo), one split
	// into clusters at 0 and 5000 (a span that is mostly empty), and weights
	// of 0..3, zeros included.
	for _, v := range []struct {
		name    string
		item    func(Item) Item
		weights bool
	}{
		{"small-alphabet", func(x Item) Item { return x }, false},
		{"offset-alphabet", func(x Item) Item { return 1<<20 + x }, false},
		{"far-apart", func(x Item) Item { return x%2*5000 + x/2 }, false},
		{"zero-weights", func(x Item) Item { return x }, true},
	} {
		for trial := 0; trial < 15; trial++ {
			db := randomPaths(rng, 20+rng.Intn(30))
			for _, seq := range db {
				for j := range seq {
					seq[j] = v.item(seq[j])
				}
			}
			var params Params
			size := len(db)
			if v.weights {
				params.Weights = make([]int, len(db))
				for i := range params.Weights {
					params.Weights[i] = rng.Intn(4)
				}
				params.Weights[0], size = 1, 0
				for _, w := range params.Weights {
					size += w
				}
			}
			// A floor of 2..5, written as the fraction of the database's
			// size that resolves to it (+0.5 keeps the product clear of float
			// rounding).
			floor := 2 + rng.Intn(4)
			params.MinRelSupport, params.MaxLen = (float64(floor)+0.5)/float64(size), 1+rng.Intn(3)
			want := patternsToMap(NaiveMiner{}.Mine(db, params))
			for _, m := range All() {
				got := patternsToMap(m.Mine(db, params))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d: %s disagrees with naive (got %d, want %d patterns)\nparams %+v",
						v.name, trial, m.Name(), len(got), len(want), params)
				}
			}
		}
	}
}

func TestDeterministicOrdering(t *testing.T) {
	db := paperExample()
	params := Params{MinRelSupport: 0.5, MaxLen: 2}
	for _, m := range All() {
		a := m.Mine(db, params)
		b := m.Mine(db, params)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: non-deterministic output order", m.Name())
		}
	}
}

func TestContains(t *testing.T) {
	seq := Sequence{1, 2, 3, 2}
	cases := []struct {
		pat  []Item
		want bool
	}{
		{[]Item{}, true},
		{[]Item{2, 3}, true},
		{[]Item{1, 3}, false},
		{[]Item{3, 2}, true},
		{[]Item{2, 2}, false},
		{[]Item{1, 2, 3, 2}, true},
		{[]Item{1, 2, 3, 2, 9}, false},
	}
	for _, c := range cases {
		if got := Contains(seq, c.pat); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.pat, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	if m := ByName("PrefixSpan"); m == nil || m.Name() != "PrefixSpan" {
		t.Error("ByName(PrefixSpan) failed")
	}
	if m := ByName("nonsense"); m != nil {
		t.Error("ByName(nonsense) should be nil")
	}
	names := map[string]bool{}
	for _, m := range All() {
		if names[m.Name()] {
			t.Errorf("duplicate miner name %s", m.Name())
		}
		names[m.Name()] = true
	}
	if len(names) != 7 {
		t.Errorf("expected 7 miners, have %d", len(names))
	}
}

func BenchmarkMinersOnPathCorpus(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	db := randomPaths(rng, 2000)
	params := Params{MinRelSupport: 0.05, MaxLen: 2}
	for _, m := range All() {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Mine(db, params)
			}
		})
	}
}
