package fsm

import (
	"math/rand"
	"testing"
)

func randSeq(rng *rand.Rand, maxItem, maxLen int) Sequence {
	n := 2 + rng.Intn(maxLen)
	out := make(Sequence, n)
	for i := range out {
		out[i] = Item(rng.Intn(maxItem))
	}
	return out
}

func patternsEqual(a, b []Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Support != b[i].Support || len(a[i].Items) != len(b[i].Items) {
			return false
		}
		for j := range a[i].Items {
			if a[i].Items[j] != b[i].Items[j] {
				return false
			}
		}
	}
	return true
}

// The index over a dataset must mine exactly what the batch miners mine.
func TestIncrementalMatchesBatchMiners(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		db := make(Dataset, 3+rng.Intn(20))
		inc := NewIncremental(2)
		for i := range db {
			db[i] = randSeq(rng, 8, 5)
			inc.Add(db[i])
		}
		p := Params{MinRelSupport: 0.3, MaxLen: 2}
		want := NaiveMiner{}.Mine(db, p)
		if got := inc.patterns(p); !patternsEqual(got, want) {
			t.Fatalf("trial %d: patterns() = %v, want %v", trial, got, want)
		}
		if got := NewPrefixSpan().Mine(db, p); !patternsEqual(got, want) {
			t.Fatalf("trial %d: oracle disagreement prefixspan %v vs naive %v", trial, got, want)
		}
	}
}

// Sliding: Add/Remove sequences over a rolling window; at every step the
// index must equal a from-scratch mine of the live window.
func TestIncrementalSlideMatchesRemine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream Dataset
	for i := 0; i < 120; i++ {
		stream = append(stream, randSeq(rng, 6, 4))
	}
	const window = 15
	inc := NewIncremental(2)
	p := Params{MinRelSupport: 0.4, MaxLen: 2}
	for i, seq := range stream {
		inc.Add(seq)
		if i >= window {
			inc.Remove(stream[i-window])
		}
		lo := 0
		if i >= window {
			lo = i - window + 1
		}
		live := stream[lo : i+1]
		if inc.size != len(live) {
			t.Fatalf("step %d: size=%d, want %d", i, inc.size, len(live))
		}
		want := NaiveMiner{}.Mine(live, p)
		if got := inc.patterns(p); !patternsEqual(got, want) {
			t.Fatalf("step %d: incremental %v != remine %v", i, got, want)
		}
	}
}

// Removing everything must empty the index completely (no leaked counts).
func TestIncrementalDrainsToEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inc := NewIncremental(2)
	var seqs Dataset
	for i := 0; i < 30; i++ {
		s := randSeq(rng, 5, 4)
		seqs = append(seqs, s)
		inc.Add(s)
	}
	for _, s := range seqs {
		inc.Remove(s)
	}
	if inc.size != 0 {
		t.Fatalf("size=%d after full drain", inc.size)
	}
	if got := inc.patterns(Params{}); len(got) != 0 {
		t.Fatalf("drained index still mines %v", got)
	}
	if len(inc.counts) != 0 {
		t.Fatalf("drained index retains %d count entries", len(inc.counts))
	}
}

// The Miner() adapter over a superset index must mine any subset db
// exactly as PrefixSpan does from scratch.
func TestWindowMinerMatchesBatchOnSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		all := make(Dataset, 10+rng.Intn(20))
		inc := NewIncremental(2)
		for i := range all {
			all[i] = randSeq(rng, 7, 5)
			inc.Add(all[i])
		}
		// db: random subset, possibly with repeats (rca expands records
		// into multiple estimated packets sharing one path).
		db := make(Dataset, 1+rng.Intn(2*len(all)))
		for i := range db {
			db[i] = all[rng.Intn(len(all))]
		}
		p := Params{MinRelSupport: 0.3, MaxLen: 2}
		want := NewPrefixSpan().Mine(db, p)
		if got := inc.Miner().Mine(db, p); !patternsEqual(got, want) {
			t.Fatalf("trial %d: adapter %v != batch %v", trial, got, want)
		}
	}
}

func TestIncrementalRemoveUnknownPanics(t *testing.T) {
	inc := NewIncremental(2)
	inc.Add(Sequence{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Remove of unknown sequence did not panic")
		}
	}()
	inc.Remove(Sequence{7, 8})
}
