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
// Counting: PrefixSpan and GSP count the frequent 1-items in a table
// indexed by item (frequentItems), not a hash map. Items are switch IDs, so
// the table's span is bounded by the topology's node count, and a count
// costs O(items + span).
package fsm

import (
	"fmt"
	"math"
	"sort"

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

// Key returns a map key for the pattern's items.
func (p Pattern) Key() string { return seqKey(p.Items) }

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
// length ascending, then lexicographic items.
func sortPatterns(ps []Pattern) []Pattern {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Support != ps[j].Support {
			return ps[i].Support > ps[j].Support
		}
		if len(ps[i].Items) != len(ps[j].Items) {
			return len(ps[i].Items) < len(ps[j].Items)
		}
		a, b := ps[i].Items, ps[j].Items
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return ps
}

// frequentItems returns items meeting minSup with their supports,
// ascending by item. sup and last are indexed by item − lo; last holds the
// index + 1 of the latest sequence to count the item, so a sequence counts
// it once however often it repeats it.
func frequentItems(db Dataset, p Params, minSup int) []Pattern {
	lo, hi := Item(math.MaxInt32), Item(math.MinInt32)
	for _, seq := range db {
		for _, it := range seq {
			lo, hi = min(lo, it), max(hi, it)
		}
	}
	if lo > hi {
		return nil
	}
	span := int(hi) - int(lo) + 1
	sup, last := make([]int, span), make([]int32, span)
	for si, seq := range db {
		w, mark := p.weight(si), int32(si+1)
		for _, it := range seq {
			if i := int(it) - int(lo); last[i] != mark {
				last[i] = mark
				sup[i] += w
			}
		}
	}
	var out []Pattern
	for i, s := range sup {
		if s >= minSup {
			out = append(out, Pattern{Items: []Item{lo + Item(i)}, Support: s})
		}
	}
	return out
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
