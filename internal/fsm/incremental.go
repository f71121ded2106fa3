package fsm

import "mars/internal/det"

// Incremental maintains the frequent-pattern state of a sliding window
// without re-mining from scratch: sequences are added when their epoch
// enters the window and removed when it expires, and the per-pattern
// support counts update by the delta only. Pattern length is capped at
// construction.
//
// The stream service no longer uses it. RCA mines the abnormal subset of a
// window's records, each weighted by its PathCount, so the index's supports
// (every sampled path, multiplicity 1) were never the supports RCA needs;
// all the service took from it was its key set as a candidate list, and
// scanning that list cost more than mining the window from scratch (DESIGN
// §14). The type stays only because bench/'s
// fsm.incr_mine_us_per_window_est probe constructs it, and goes with that
// probe in the next benchmark PR.
//
// Two read paths:
//
//   - patterns(p) mines the indexed multiset itself — exactly what a batch
//     miner would return over the same dataset (the equivalence tests pin
//     this against PrefixSpan and the naive oracle);
//   - Miner() adapts the index to the Miner seam: Mine(db, p) counts each
//     indexed candidate's support over db exactly. When every sequence of
//     db is indexed, a pattern frequent in db necessarily occurs in some
//     indexed sequence, so the candidate set is complete and the output
//     equals a from-scratch mine of db.
//
// Not safe for concurrent use.
type Incremental struct {
	maxLen int
	// counts maps pattern key → entry. Support counts sequences (with
	// multiplicity) containing the pattern at least once.
	counts map[string]*incEntry
	// size is the number of indexed sequences (with multiplicity).
	size int
	// scratch dedupes patterns within one sequence.
	scratch map[string]bool
}

type incEntry struct {
	items   []Item
	support int
}

// NewIncremental creates an empty window index for contiguous patterns of
// length <= maxLen (MARS uses 2: switches and links).
func NewIncremental(maxLen int) *Incremental {
	if maxLen <= 0 {
		maxLen = 2
	}
	return &Incremental{
		maxLen:  maxLen,
		counts:  make(map[string]*incEntry),
		scratch: make(map[string]bool),
	}
}

// patternsOf visits each distinct contiguous pattern of seq once.
func (x *Incremental) patternsOf(seq Sequence, visit func(key string, items []Item)) {
	clear(x.scratch)
	for i := range seq {
		for l := 1; l <= x.maxLen && i+l <= len(seq); l++ {
			sub := seq[i : i+l]
			k := seqKey(sub)
			if x.scratch[k] {
				continue
			}
			x.scratch[k] = true
			visit(k, sub)
		}
	}
}

// Add indexes one sequence.
func (x *Incremental) Add(seq Sequence) {
	x.size++
	x.patternsOf(seq, func(k string, items []Item) {
		e := x.counts[k]
		if e == nil {
			e = &incEntry{items: append([]Item(nil), items...)}
			x.counts[k] = e
		}
		e.support++
	})
}

// Remove un-indexes one sequence previously passed to Add. Removing a
// sequence that was never added corrupts the counts.
func (x *Incremental) Remove(seq Sequence) {
	if x.size == 0 {
		panic("fsm: Remove on empty incremental index")
	}
	x.size--
	x.patternsOf(seq, func(k string, _ []Item) {
		e := x.counts[k]
		if e == nil {
			panic("fsm: Remove of a sequence that was never added")
		}
		e.support--
		if e.support <= 0 {
			delete(x.counts, k)
		}
	})
}

// patterns mines the indexed multiset: all contiguous patterns meeting
// p's support floor over the Len() indexed sequences, in the canonical
// order (support desc, length asc, lexicographic).
func (x *Incremental) patterns(p Params) []Pattern {
	minSup := p.minSupport(x.size)
	maxLen := p.maxLen()
	var out []Pattern
	for _, k := range det.Keys(x.counts) {
		e := x.counts[k]
		if e.support >= minSup && len(e.items) <= maxLen {
			out = append(out, Pattern{Items: append([]Item(nil), e.items...), Support: e.support})
		}
	}
	return sortPatterns(out)
}

// Miner returns a Miner view of the index. See the type comment for the
// completeness argument; the adapter requires a MaxLen no larger than the
// index's.
func (x *Incremental) Miner() Miner { return windowMiner{x} }

type windowMiner struct{ x *Incremental }

// Name implements Miner.
func (windowMiner) Name() string { return "incremental-window" }

// Mine implements Miner: exact support counting of the indexed candidate
// patterns over db.
func (m windowMiner) Mine(db Dataset, p Params) []Pattern {
	minSup := p.minSupport(len(db))
	maxLen := p.maxLen()
	var out []Pattern
	for _, k := range det.Keys(m.x.counts) {
		e := m.x.counts[k]
		if len(e.items) > maxLen {
			continue
		}
		sup := 0
		for si, seq := range db {
			if Contains(seq, e.items) {
				sup += p.weight(si)
			}
		}
		if sup >= minSup {
			out = append(out, Pattern{Items: append([]Item(nil), e.items...), Support: sup})
		}
	}
	return sortPatterns(out)
}
