package fsm

import (
	"math"
	"slices"
	"sync"
)

// PrefixSpan mines frequent sequences by prefix-projected pattern growth
// (Pei et al., ICDE'01). For each frequent prefix it builds a projected
// database of suffix positions and recurses on the items frequent within
// it, pruning infrequent branches as early as possible. The paper found
// it the fastest miner for MARS's short-pattern workload (Fig. 11).
//
// A PrefixSpan keeps its counting tables from one Mine to the next, and one
// value is safe for concurrent use: each Mine takes a table of its own.
type PrefixSpan struct {
	mu sync.Mutex
	// free holds the tables not in use: at most as many as Mine calls ever
	// ran at once. A locked list, not a sync.Pool, whose per-P caches and
	// clearing at GC would make a warm Mine allocate a table now and then.
	free []*prefixTable
}

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

// prefixTable is a Mine call's memory. sup and last are indexed by
// item − lo: sup sums a pass's weights, and last holds the mark of the
// latest projected sequence to count the item, so a sequence counts it once
// however often it repeats it; a pass zeroes the supports it reads. The
// slabs are stacks: a prefix's projection and extensions sit above its
// ancestors' and are popped when its subtree is done. found holds each
// pattern's length and support, items their items.
type prefixTable struct {
	sup        []int
	last       []int32
	mark       int32
	ends       []int32
	proj       []projEntry
	ext, found []itemSup
	items      []Item
}

type itemSup struct {
	item Item
	sup  int
}

// maxTable bounds the tables kept: one whose span or slab grew past it is
// dropped after use, so a pathological database cannot stay pinned.
const maxTable = 1 << 16

// prefixRun is one Mine call over its table.
type prefixRun struct {
	*prefixTable
	db             Dataset
	p              Params
	minSup, maxLen int
	lo             Item
}

// Mine implements Miner.
func (ps *PrefixSpan) Mine(db Dataset, p Params) []Pattern {
	r := prefixRun{db: db, p: p, minSup: p.minSupport(len(db)), maxLen: p.maxLen()}
	lo, hi := Item(math.MaxInt32), Item(math.MinInt32)
	for _, seq := range db {
		for _, it := range seq {
			lo, hi = min(lo, it), max(hi, it)
		}
	}
	if lo > hi {
		return nil
	}
	ps.mu.Lock()
	if n := len(ps.free); n > 0 {
		r.prefixTable, ps.free = ps.free[n-1], ps.free[:n-1]
	} else {
		r.prefixTable = new(prefixTable)
	}
	ps.mu.Unlock()
	if span := int(hi) - int(lo) + 1; len(r.sup) < span {
		r.sup, r.last = make([]int, span), make([]int32, span)
	}
	clear(r.last)
	r.mark, r.lo = 0, lo
	// The empty prefix ends before every position of every sequence.
	for si, seq := range db {
		from := len(r.ends)
		for i := range seq {
			r.ends = append(r.ends, int32(i))
		}
		r.project(si, from)
	}
	r.grow(nil, 0, len(r.proj))
	// The output is returned, never reused: its items are one slab, carved.
	var out []Pattern
	if len(r.found) > 0 {
		items := slices.Clone(r.items)
		out = make([]Pattern, len(r.found))
		for i, f := range r.found {
			n := int(f.item)
			out[i], items = Pattern{Items: items[:n:n], Support: f.sup}, items[n:]
		}
	}
	if t := r.prefixTable; max(len(t.sup), cap(t.ends), cap(t.proj), cap(t.items), cap(t.found)) <= maxTable {
		t.ends, t.proj, t.ext, t.found, t.items = t.ends[:0], t.proj[:0], t.ext[:0], t.found[:0], t.items[:0]
		ps.mu.Lock()
		ps.free = append(ps.free, t)
		ps.mu.Unlock()
	}
	return sortPatterns(out)
}

// project pushes sequence si's projection: the ends appended past from, if
// any.
func (r *prefixRun) project(si, from int) {
	if to := len(r.ends); to > from {
		r.proj = append(r.proj, projEntry{seq: si, ends: r.ends[from:to:to]})
	}
}

// grow extends prefix, whose projection is proj[from:to], by each item that
// follows one of its occurrences in sequences of enough support, ascending
// by item.
func (r *prefixRun) grow(prefix []Item, from, to int) {
	if len(prefix) == r.maxLen {
		return
	}
	lo, hi := math.MaxInt, -1
	for _, pe := range r.proj[from:to] {
		seq, w := r.db[pe.seq], r.p.weight(pe.seq)
		r.mark++
		for _, e := range pe.ends {
			if e == int32(len(seq)) {
				continue
			}
			if i := int(seq[e]) - int(r.lo); r.last[i] != r.mark {
				r.last[i], r.sup[i] = r.mark, r.sup[i]+w
				lo, hi = min(lo, i), max(hi, i)
			}
		}
	}
	extFrom := len(r.ext)
	for i := lo; i <= hi; i++ {
		if s := r.sup[i]; s >= r.minSup {
			r.ext = append(r.ext, itemSup{r.lo + Item(i), s})
		}
		r.sup[i] = 0
	}
	for k, n := extFrom, len(r.ext); k < n; k++ {
		f := r.ext[k]
		projFrom, endsFrom := len(r.proj), len(r.ends)
		for j := from; j < to; j++ {
			pe := r.proj[j]
			seq, at := r.db[pe.seq], len(r.ends)
			for _, e := range pe.ends {
				if e < int32(len(seq)) && seq[e] == f.item {
					r.ends = append(r.ends, e+1)
				}
			}
			r.project(pe.seq, at)
		}
		at := len(r.items)
		r.items = append(append(r.items, prefix...), f.item)
		next := r.items[at:len(r.items):len(r.items)]
		r.found = append(r.found, itemSup{Item(len(next)), f.sup})
		r.grow(next, projFrom, len(r.proj))
		r.proj, r.ends = r.proj[:projFrom], r.ends[:endsFrom]
	}
	r.ext = r.ext[:extFrom]
}
