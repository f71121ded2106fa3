package fsm

import (
	"math/rand"
	"reflect"
	"testing"
)

// expand is the database Params.Weights stands for: sequence i repeated
// w[i] times (a nil w repeats every sequence once).
func expand(db Dataset, w []int) Dataset {
	var out Dataset
	for i, seq := range db {
		n := 1
		if w != nil {
			n = w[i]
		}
		for j := 0; j < n; j++ {
			out = append(out, seq)
		}
	}
	return out
}

// TestWeightedMineEqualsExpanded is the identity the RCA pipeline rests
// on: for every miner, mining a weighted database returns — pattern for
// pattern, support for support, in the same order — what mining the
// expanded database returns, including weight-0 sequences (which must
// vanish, candidates and all) and nil weights.
func TestWeightedMineEqualsExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(1407))
	for trial := 0; trial < 40; trial++ {
		db := randomPaths(rng, 5+rng.Intn(40))
		var weights []int
		switch {
		case trial%8 == 0: // nil: every sequence once
		case trial%8 == 1: // all zero: an empty database
			weights = make([]int, len(db))
		default:
			weights = make([]int, len(db))
			for i := range weights {
				weights[i] = rng.Intn(31)
			}
		}
		params := Params{MinRelSupport: 0.02 + 0.4*rng.Float64(), MaxLen: rng.Intn(4)}
		full := expand(db, weights)
		miners := append(All(), NaiveMiner{})
		if 0 < params.MaxLen && params.MaxLen <= 3 {
			// The index adapter counts its indexed candidates over db, so
			// it needs every sequence indexed and a cap within its own.
			inc := NewIncremental(3)
			for _, seq := range db {
				inc.Add(seq)
			}
			miners = append(miners, inc.Miner())
		}
		for _, m := range miners {
			weighted := params
			weighted.Weights = weights
			got := m.Mine(db, weighted)
			want := m.Mine(full, params)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s over weights %v\n got %v\nwant %v\nparams %+v",
					trial, m.Name(), weights, got, want, params)
			}
		}
	}
}

func TestWeightsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("2 weights for 3 sequences did not panic")
		}
	}()
	NewPrefixSpan().Mine(Dataset{{1}, {2}, {3}}, Params{Weights: []int{1, 1}})
}
