package rca

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/topology"
)

// batchMergeRanked is the merge as it was before Merger existed, kept as
// the reference: normalize every list, concatenate, fold duplicates in one
// pass over the whole history, rank.
func batchMergeRanked(lists [][]Culprit) []Culprit {
	var all []Culprit
	for _, l := range lists {
		if len(l) == 0 {
			continue
		}
		max := l[0].Score
		for _, c := range l {
			if c.Score > max {
				max = c.Score
			}
		}
		if max <= 0 {
			max = 1
		}
		for _, c := range l {
			c.Score /= max
			all = append(all, c)
		}
	}
	type key struct {
		cause Cause
		level Level
		loc   string
		flow  dataplane.FlowID
	}
	merged := make(map[key]*Culprit)
	var order []key
	for _, c := range all {
		k := key{c.Cause, c.Level, topology.Path(c.Location).String(), dataplane.FlowID{}}
		if c.Level == LevelFlow {
			k.flow, k.loc = c.Flow, ""
		}
		if m, ok := merged[k]; ok {
			m.Score += c.Score
			if c.Confidence > m.Confidence {
				m.Confidence = c.Confidence
			}
		} else {
			cc := c
			merged[k] = &cc
			order = append(order, k)
		}
	}
	out := make([]Culprit, 0, len(order))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	return rank(out)
}

// randomCulprit draws from a small identity space so lists collide often,
// with scores that do not sum exactly in floating point.
func randomCulprit(rng *rand.Rand) Culprit {
	c := Culprit{
		Cause:      Cause(rng.Intn(3)),
		Level:      Level(rng.Intn(3)),
		Score:      rng.Float64() * 3,
		Confidence: float64(rng.Intn(5)) / 4,
	}
	for n := rng.Intn(4); n > 0; n-- { // 0 to 3 switches: both sides of the merge key's two
		c.Location = append(c.Location, topology.NodeID(rng.Intn(3)))
	}
	if c.Level == LevelFlow {
		c.Flow = dataplane.FlowID{Src: topology.NodeID(rng.Intn(2)), Sink: topology.NodeID(rng.Intn(2))}
	}
	return c
}

// bitEqual reports whether two rankings agree culprit by culprit, in
// order, with Score and Confidence compared bit for bit.
func bitEqual(got, want []Culprit) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Cause != w.Cause || g.Level != w.Level || g.Flow != w.Flow || !slices.Equal(g.Location, w.Location) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) {
			return false
		}
	}
	return true
}

// A Merger fed lists one by one — and read between Adds, as the streaming
// service's Merged() is — must equal the batch merge over the same history
// at every prefix: same culprits, same order, Score and Confidence bit for
// bit (the fold keeps the batch merge's summation order). MergeRanked, now
// a loop over a Merger, must too.
func TestMergerMatchesBatchMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(20230807))
	folded := 0
	for round := 0; round < 80; round++ {
		var (
			m     Merger
			lists [][]Culprit
		)
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			var l []Culprit
			for j := rng.Intn(7); j > 0; j-- { // empty lists included
				l = append(l, randomCulprit(rng))
			}
			lists = append(lists, l)
			m.Add(l)
			folded += len(l)
			if got, want := m.Ranked(), batchMergeRanked(lists); !bitEqual(got, want) {
				t.Fatalf("round %d after %d lists:\nmerger %+v\nbatch  %+v", round, i+1, got, want)
			}
		}
		if got, want := MergeRanked(lists), batchMergeRanked(lists); !bitEqual(got, want) {
			t.Fatalf("round %d:\nMergeRanked %+v\nbatch       %+v", round, got, want)
		}
		folded -= len(m.Ranked())
	}
	if folded < 100 {
		t.Fatalf("only %d culprits merged into an earlier one; the comparison is near-vacuous", folded)
	}
}
