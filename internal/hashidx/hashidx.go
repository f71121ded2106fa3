// Package hashidx is a flat, pointer-free hash index from uint64 keys to
// int32 values: one array of entries, linear probing in Robin Hood order
// (an entry records its distance from home, so a miss stops early and
// Delete shifts back without rehashing), under a hash keyed by a seed drawn
// per table from hash/maphash, so keys off the wire cannot pile into one
// probe run. Nothing iterates a table but its growth: the seed reaches no
// output.
package hashidx

import (
	"hash/maphash"
	"math/bits"
)

// entry is one slot; dist is its distance from home plus one, 0 if empty.
type entry struct {
	key  uint64
	val  int32
	dist uint32
}

const minSlots = 8

// Index maps uint64 keys to int32 values. The zero value is an empty index.
type Index struct {
	h       Hasher
	entries []entry // a power of two long, or nil
	n       int
}

// New returns an index with room for n entries before it grows.
func New(n int) Index {
	slots := minSlots
	for full(n, slots) {
		slots *= 2
	}
	var x Index
	x.resize(slots)
	return x
}

// full reports whether n entries pass the load limit of a table of slots:
// 13/16, the load Go's maps kept before Swiss tables. At 3/4 the wide
// stream replay's units of 97 to 99 flows took 256 slots where a Go map
// keeps 128 (+0.65 % allocation per pass); at 7/8 the narrow replay, whose
// units admit and evict a flow per record, ran about a sixth slower.
func full(n, slots int) bool { return 16*n > 13*slots }

// Hasher is the index's keyed hash, for tables that keep their own slots;
// the zero Hasher is unkeyed.
type Hasher struct{ seed uint64 }

// NewHasher returns a Hasher with a fresh seed.
func NewHasher() Hasher { return Hasher{seed: maphash.Bytes(maphash.MakeSeed(), nil)} }

// Hash mixes k with the seed in two rounds of mix. One round leaves
// structure: over 40 seeds, 10,000 keys that collide at seed 0 reached a
// mean probe length of 8.2 in 16,384 slots, and a 100×100 grid of
// (src, sink) keys 2.9; two rounds kept both at or under 1.84.
func (h Hasher) Hash(k uint64) uint64 { return mix(mix(k ^ h.seed)) }

// mix folds the halves of x's 128-bit product with an odd constant.
func mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x, 0x9E3779B97F4A7C15)
	return hi ^ lo
}

// Len returns the number of entries.
func (x *Index) Len() int { return x.n }

// Get returns k's value and whether k is present.
func (x *Index) Get(k uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint64(len(x.entries) - 1)
	for i, d := x.h.Hash(k)&mask, uint32(1); ; i, d = (i+1)&mask, d+1 {
		e := &x.entries[i]
		if e.dist < d {
			return 0, false
		}
		if e.key == k {
			return e.val, true
		}
	}
}

// Put sets k's value to v, adding k if it is absent.
func (x *Index) Put(k uint64, v int32) {
	if full(x.n+1, len(x.entries)) {
		x.resize(max(2*len(x.entries), minSlots))
	}
	if x.insert(entry{key: k, val: v, dist: 1}) {
		x.n++
	}
}

// insert walks e's probe run from home: it updates e's key where it finds
// it (before any entry nearer home), or swaps e with each entry nearer home
// until one lands in an empty slot, and reports whether the key was new.
func (x *Index) insert(e entry) bool {
	mask := uint64(len(x.entries) - 1)
	for i := x.h.Hash(e.key) & mask; ; i, e.dist = (i+1)&mask, e.dist+1 {
		switch c := &x.entries[i]; {
		case c.dist == 0:
			*c = e
			return true
		case c.key == e.key && c.dist == e.dist:
			c.val = e.val
			return false
		case c.dist < e.dist:
			*c, e = e, *c
		}
	}
}

// Delete removes k and returns its value and whether it was present.
func (x *Index) Delete(k uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint64(len(x.entries) - 1)
	i := x.h.Hash(k) & mask
	for d := uint32(1); x.entries[i].dist < d || x.entries[i].key != k; i, d = (i+1)&mask, d+1 {
		if x.entries[i].dist < d {
			return 0, false
		}
	}
	v := x.entries[i].val
	for j := (i + 1) & mask; x.entries[j].dist > 1; i, j = j, (j+1)&mask {
		x.entries[i] = x.entries[j]
		x.entries[i].dist--
	}
	x.entries[i] = entry{}
	x.n--
	return v, true
}

// resize moves the entries into a table of slots, drawing the seed first.
func (x *Index) resize(slots int) {
	if x.entries == nil {
		x.h = NewHasher()
	}
	old := x.entries
	x.entries = make([]entry, slots)
	for _, e := range old {
		if e.dist != 0 {
			e.dist = 1
			x.insert(e)
		}
	}
}
