package fsm

import "mars/internal/det"

// PrefixSpan mines frequent sequences by prefix-projected pattern growth
// (Pei et al., ICDE'01). For each frequent prefix it builds a projected
// database of suffix positions and recurses on the items frequent within
// it, pruning infrequent branches as early as possible. The paper found
// it the fastest miner for MARS's short-pattern workload (Fig. 11).
type PrefixSpan struct{}

// NewPrefixSpan returns a PrefixSpan miner.
func NewPrefixSpan() *PrefixSpan { return &PrefixSpan{} }

// Name implements Miner.
func (*PrefixSpan) Name() string { return "PrefixSpan" }

// projEntry locates occurrences of the current prefix in one sequence.
// All end positions are kept because a contiguous extension must continue
// from a specific occurrence.
type projEntry struct {
	seq  int
	ends []int32 // positions just past each prefix occurrence
}

// Mine implements Miner.
func (*PrefixSpan) Mine(db Dataset, p Params) []Pattern {
	minSup := p.minSupport(len(db))
	maxLen := p.maxLen()
	var out []Pattern

	// Initial projection: every sequence with "end" before position 0 ...
	// handled specially by seeding per frequent item.
	var grow func(prefix []Item, proj []projEntry)
	grow = func(prefix []Item, proj []projEntry) {
		if len(prefix) == maxLen {
			return
		}
		// Count extension items within the projected database.
		counts := map[Item]int{}
		for _, pe := range proj {
			seq := db[pe.seq]
			seen := map[Item]bool{}
			for _, e := range pe.ends {
				if e < int32(len(seq)) {
					it := seq[e]
					if !seen[it] {
						seen[it] = true
						counts[it] += p.weight(pe.seq)
					}
				}
			}
		}
		for _, it := range det.Keys(counts) {
			sup := counts[it]
			if sup < minSup {
				continue
			}
			next := append(append([]Item{}, prefix...), it)
			var nproj []projEntry
			for _, pe := range proj {
				seq := db[pe.seq]
				var ends []int32
				for _, e := range pe.ends {
					if e < int32(len(seq)) && seq[e] == it {
						ends = append(ends, e+1)
					}
				}
				if len(ends) > 0 {
					nproj = append(nproj, projEntry{seq: pe.seq, ends: ends})
				}
			}
			out = append(out, Pattern{Items: next, Support: sup})
			grow(next, nproj)
		}
	}

	// Seed with frequent 1-items and their occurrence projections.
	for _, f := range frequentItems(db, p, minSup) {
		it := f.Items[0]
		var proj []projEntry
		for si, seq := range db {
			var ends []int32
			for i, x := range seq {
				if x == it {
					ends = append(ends, int32(i+1))
				}
			}
			if len(ends) > 0 {
				proj = append(proj, projEntry{seq: si, ends: ends})
			}
		}
		out = append(out, Pattern{Items: []Item{it}, Support: f.Support})
		grow([]Item{it}, proj)
	}
	return sortPatterns(out)
}
