package fsm

import "mars/internal/det"

// Spam is SPAM (Ayres et al., KDD'02): the database is encoded as one
// bitmap per item with a bit per position of every sequence, and a
// pattern's occurrences are a bitmap of its end positions. An S-step
// extension shifts the pattern bitmap onto the next position of each
// sequence and ANDs the item bitmap.
//
// The same engine also serves LAPIN-SPAM (Yang & Kitsuregawa, ICDE'05
// workshop): before paying for the shift+AND, the item's last position in
// each sequence is compared with the pattern's first end (last-position
// induction), skipping sequences that cannot possibly extend.
type Spam struct {
	lapin bool
	cmap  bool
	name  string
}

// NewSpam returns the plain SPAM miner.
func NewSpam() *Spam { return &Spam{name: "SPAM"} }

// NewLapin returns the LAPIN-SPAM variant (last-position induction).
func NewLapin() *Spam { return &Spam{name: "LAPIN", lapin: true} }

// NewCMSpam returns SPAM with CMAP co-occurrence pruning.
func NewCMSpam() *Spam { return &Spam{name: "CM-SPAM", cmap: true} }

// Name implements Miner.
func (s *Spam) Name() string { return s.name }

// bitmapDB lays all sequences into one flat bit space. Sequence i owns
// bits [offset[i], offset[i]+len(seq_i)).
type bitmapDB struct {
	words   int
	offset  []int32
	lengths []int32
	// lastPos[item][sid] is the final position (bit index) of item in
	// sequence sid, or -1.
	lastPos map[Item][]int32
}

type bitmap []uint64

func (b bitmap) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitmap) get(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func newBitmap(words int) bitmap  { return make(bitmap, words) }
func (b bitmap) clone() bitmap    { c := newBitmap(len(b)); copy(c, b); return c }
func (b bitmap) and(o bitmap) {
	for i := range b {
		b[i] &= o[i]
	}
}
func (b bitmap) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Mine implements Miner.
func (s *Spam) Mine(db Dataset, p Params) []Pattern {
	minSup := p.minSupport(len(db))
	maxLen := p.maxLen()

	totalBits := int32(0)
	bdb := &bitmapDB{offset: make([]int32, len(db)), lengths: make([]int32, len(db)), lastPos: map[Item][]int32{}}
	for i, seq := range db {
		bdb.offset[i] = totalBits
		bdb.lengths[i] = int32(len(seq))
		totalBits += int32(len(seq))
	}
	bdb.words = int(totalBits+63) / 64

	itemBitmaps := map[Item]bitmap{}
	for si, seq := range db {
		for pos, it := range seq {
			bm := itemBitmaps[it]
			if bm == nil {
				bm = newBitmap(bdb.words)
				itemBitmaps[it] = bm
			}
			bit := bdb.offset[si] + int32(pos)
			bm.set(bit)
			lp := bdb.lastPos[it]
			if lp == nil {
				lp = make([]int32, len(db))
				for k := range lp {
					lp[k] = -1
				}
				bdb.lastPos[it] = lp
			}
			lp[si] = bit
		}
	}

	var items []Item
	for _, it := range det.Keys(itemBitmaps) {
		if s.countSupport(bdb, itemBitmaps[it], p) >= minSup {
			items = append(items, it)
		}
	}

	var cmap map[[2]Item]bool
	if s.cmap {
		cmap = buildCMAP(db, p, minSup)
	}

	var out []Pattern
	var dfs func(prefix []Item, bm bitmap)
	dfs = func(prefix []Item, bm bitmap) {
		sup := s.countSupport(bdb, bm, p)
		if sup < minSup {
			return
		}
		out = append(out, Pattern{Items: append([]Item{}, prefix...), Support: sup})
		if len(prefix) == maxLen {
			return
		}
		last := prefix[len(prefix)-1]
		for _, it := range items {
			if s.cmap && !cmap[[2]Item{last, it}] {
				continue
			}
			if s.lapin && !s.lapinViable(bdb, bm, it, p, minSup) {
				continue
			}
			ext := s.sStep(bdb, bm)
			ext.and(itemBitmaps[it])
			if !ext.empty() {
				dfs(append(prefix, it), ext)
			}
		}
	}
	for _, it := range items {
		dfs([]Item{it}, itemBitmaps[it].clone())
	}
	return sortPatterns(out)
}

// sStep transforms an end-position bitmap into the extension mask: the
// next position within the same sequence.
func (s *Spam) sStep(bdb *bitmapDB, bm bitmap) bitmap {
	out := newBitmap(bdb.words)
	for si := range bdb.offset {
		start := bdb.offset[si]
		end := start + bdb.lengths[si]
		for i := start; i < end-1; i++ {
			if bm.get(i) {
				out.set(i + 1)
			}
		}
	}
	return out
}

// countSupport sums the weights of sequences with at least one set bit.
func (s *Spam) countSupport(bdb *bitmapDB, bm bitmap, p Params) int {
	sup := 0
	for si := range bdb.offset {
		start := bdb.offset[si]
		end := start + bdb.lengths[si]
		for i := start; i < end; i++ {
			if bm.get(i) {
				sup += p.weight(si)
				break
			}
		}
	}
	return sup
}

// lapinViable applies last-position induction: weigh the sequences where
// the item's last position lies beyond the pattern's first end position;
// if they fall short of minSup, the S-step cannot yield a frequent pattern.
func (s *Spam) lapinViable(bdb *bitmapDB, bm bitmap, it Item, p Params, minSup int) bool {
	lp, ok := bdb.lastPos[it]
	if !ok {
		return false
	}
	viable := 0
	for si := range bdb.offset {
		if lp[si] < 0 {
			continue
		}
		start := bdb.offset[si]
		end := start + bdb.lengths[si]
		for i := start; i < end; i++ {
			if bm.get(i) {
				if lp[si] > i {
					viable += p.weight(si)
				}
				break
			}
		}
	}
	return viable >= minSup
}
