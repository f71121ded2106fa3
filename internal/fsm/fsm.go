// Package fsm implements Frequent Sequence Mining over switch paths
// (§4.4.2). MARS feeds the abnormal set's paths to a miner and keeps the
// frequent patterns of length <= 2 — single switches and links — as
// candidate culprits.
//
// Seven algorithms from the paper's Fig. 11 comparison are provided:
// PrefixSpan, GSP, SPADE, SPAM, LAPIN-SPAM, CM-SPADE, and CM-SPAM. All
// implement the Miner interface and return identical pattern sets, which
// the test suite cross-checks against a naive enumerator.
//
// Semantics: MARS treats a "link" pattern ⟨a,b⟩ as two *adjacent* switches
// on a path (the paper's worked example keeps ⟨s3,s2⟩ but not ⟨s3,s4⟩ for
// path ⟨s3,s2,s4⟩), i.e. contiguous substring matching under a relative
// support floor. That is the only semantics the package implements: the
// original algorithms' gap-allowed subsequences have no meaning for
// switch/link culprits.
//
// Weighted databases: MARS's Alg. 2 makes one sampled telemetry record
// stand for PathCount packets on one path, so its abnormal set is a
// multiset. Params.Weights carries that multiplicity — sequence i counts
// Weights[i] times — and every miner returns exactly what it would over
// the database with each sequence repeated Weights[i] times, at a cost
// that does not depend on the weights.
//
// Counting: PrefixSpan counts items in a table indexed by item, not a hash
// map, and GSP takes its frequent 1-items from it. Items are switch IDs, so
// the table's span is bounded by the topology's node count, and a count
// costs O(items + span). The tables and projections are reused from one
// Mine to the next: a warm Mine allocates only the patterns it returns.
package fsm

import (
	"cmp"
	"fmt"
	"slices"

	"mars/internal/det"
)

// Item is one sequence element (a switch ID).
type Item int32

// Sequence is an ordered list of items (a packet path).
type Sequence []Item

// Dataset is the sequence database a miner operates on.
type Dataset []Sequence

// Pattern is a mined frequent sequence with its support (the number of
// database sequences that contain it, each counted with its weight).
type Pattern struct {
	Items   []Item
	Support int
}

func (p Pattern) String() string {
	s := "<"
	for i, it := range p.Items {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("s%d", it)
	}
	return fmt.Sprintf("%s>:%d", s, p.Support)
}

func seqKey(items []Item) string {
	b := make([]byte, 0, len(items)*4)
	for _, it := range items {
		b = append(b, byte(it>>24), byte(it>>16), byte(it>>8), byte(it))
	}
	return string(b)
}

// Params configures a mining run.
type Params struct {
	// MinRelSupport is the relative support floor as a fraction of the
	// database size (the paper's example uses 50%).
	MinRelSupport float64
	// MaxLen caps pattern length; 0 means unlimited. MARS uses 2.
	MaxLen int
	// Weights, when non-nil, gives each database sequence a non-negative
	// multiplicity (len(Weights) must equal len(db)): supports and the
	// database size behind MinRelSupport are sums of weights, as if
	// sequence i were present Weights[i] times. nil counts every sequence
	// once.
	Weights []int
}

// weight is sequence i's multiplicity.
func (p Params) weight(i int) int {
	if p.Weights == nil {
		return 1
	}
	return p.Weights[i]
}

// minSupport resolves the absolute support floor over a database of n
// sequences (at least 1: a pattern must occur to be reported). The
// relative floor is taken over the weighted size.
func (p Params) minSupport(n int) int {
	if p.Weights != nil {
		if len(p.Weights) != n {
			panic(fmt.Sprintf("fsm: %d weights for %d sequences", len(p.Weights), n))
		}
		n = 0
		for _, w := range p.Weights {
			n += w
		}
	}
	ms := int(p.MinRelSupport * float64(n))
	if ms < 1 {
		ms = 1
	}
	return ms
}

// maxLen resolves the effective pattern length cap.
func (p Params) maxLen() int {
	if p.MaxLen <= 0 {
		return 1 << 30
	}
	return p.MaxLen
}

// Miner is a frequent sequence mining algorithm.
type Miner interface {
	Name() string
	Mine(db Dataset, p Params) []Pattern
}

// All returns one instance of every implemented algorithm, in the order
// used by the Fig. 11 experiment.
func All() []Miner {
	return []Miner{
		NewPrefixSpan(),
		NewLapin(),
		NewGSP(),
		NewSpade(),
		NewSpam(),
		NewCMSpade(),
		NewCMSpam(),
	}
}

// ByName returns the miner with the given Name, or nil.
func ByName(name string) Miner {
	for _, m := range All() {
		if m.Name() == name {
			return m
		}
	}
	return nil
}

// Contains reports whether pat occurs in seq as a contiguous run.
func Contains(seq Sequence, pat []Item) bool {
outer:
	for i := 0; i+len(pat) <= len(seq); i++ {
		for j := range pat {
			if seq[i+j] != pat[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// sortPatterns orders output deterministically: support descending, then
// length ascending, then lexicographic items. A miner reports each pattern
// once, so the order is strict and total: every sort yields one permutation.
func sortPatterns(ps []Pattern) []Pattern {
	slices.SortFunc(ps, func(a, b Pattern) int {
		return cmp.Or(cmp.Compare(b.Support, a.Support), cmp.Compare(len(a.Items), len(b.Items)), slices.Compare(a.Items, b.Items))
	})
	return ps
}

// NaiveMiner enumerates every distinct substring up to MaxLen and counts
// support by scanning. It is the test oracle — use only on small
// databases.
type NaiveMiner struct{}

// Name implements Miner.
func (NaiveMiner) Name() string { return "naive" }

// Mine implements Miner.
func (NaiveMiner) Mine(db Dataset, p Params) []Pattern {
	minSup := p.minSupport(len(db))
	maxLen := p.maxLen()
	cands := map[string][]Item{}
	for _, seq := range db {
		for i := range seq {
			for l := 1; l <= maxLen && i+l <= len(seq); l++ {
				sub := seq[i : i+l]
				cands[seqKey(sub)] = append([]Item{}, sub...)
			}
		}
	}
	var out []Pattern
	for _, k := range det.Keys(cands) {
		items := cands[k]
		sup := 0
		for si, seq := range db {
			if Contains(seq, items) {
				sup += p.weight(si)
			}
		}
		if sup >= minSup {
			out = append(out, Pattern{Items: items, Support: sup})
		}
	}
	return sortPatterns(out)
}
