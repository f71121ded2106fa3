package fsm

import "mars/internal/det"

// Spade is Zaki's SPADE (Machine Learning 2001): sequences are mined in a
// vertical layout where each pattern owns an id-list of (sequence,
// end-position) occurrences, and a pattern is extended by temporally
// joining its id-list with a 1-item id-list. Support counting never
// rescans the horizontal database.
type Spade struct {
	// cmap, when non-nil, prunes extensions using the CMAP co-occurrence
	// structure (Fournier-Viger et al. 2014); this is the CM-SPADE variant.
	cmap map[[2]Item]bool
	name string
}

// NewSpade returns the plain SPADE miner.
func NewSpade() *Spade { return &Spade{name: "SPADE"} }

// NewCMSpade returns SPADE with co-occurrence (CMAP) pruning.
func NewCMSpade() *Spade { return &Spade{name: "CM-SPADE", cmap: map[[2]Item]bool{}} }

// Name implements Miner.
func (s *Spade) Name() string { return s.name }

// idOcc is one occurrence in a vertical id-list.
type idOcc struct {
	sid int32 // sequence index
	eid int32 // position of the pattern's last item
}

// Mine implements Miner.
func (s *Spade) Mine(db Dataset, p Params) []Pattern {
	minSup := p.minSupport(len(db))
	maxLen := p.maxLen()

	// Build 1-item vertical id-lists.
	itemLists := map[Item][]idOcc{}
	for si, seq := range db {
		for pos, it := range seq {
			itemLists[it] = append(itemLists[it], idOcc{int32(si), int32(pos)})
		}
	}
	var items []Item
	for _, it := range det.Keys(itemLists) {
		if supportOf(itemLists[it], p) >= minSup {
			items = append(items, it)
		}
	}

	// CM-SPADE: precompute which ordered pairs co-occur frequently enough
	// to be worth joining.
	useCmap := s.cmap != nil
	var cmap map[[2]Item]bool
	if useCmap {
		cmap = buildCMAP(db, p, minSup)
	}

	var out []Pattern
	var dfs func(prefix []Item, list []idOcc)
	dfs = func(prefix []Item, list []idOcc) {
		sup := supportOf(list, p)
		if sup < minSup {
			return
		}
		out = append(out, Pattern{Items: append([]Item{}, prefix...), Support: sup})
		if len(prefix) == maxLen {
			return
		}
		last := prefix[len(prefix)-1]
		for _, it := range items {
			if useCmap && !cmap[[2]Item{last, it}] {
				continue
			}
			joined := temporalJoin(list, itemLists[it])
			if supportOf(joined, p) >= minSup {
				dfs(append(prefix, it), joined)
			}
		}
	}
	for _, it := range items {
		dfs([]Item{it}, itemLists[it])
	}
	return sortPatterns(out)
}

// supportOf sums the weights of the distinct sequence IDs in a sorted
// id-list.
func supportOf(list []idOcc, p Params) int {
	n := 0
	var prev int32 = -1
	for _, o := range list {
		if o.sid != prev {
			n += p.weight(int(o.sid))
			prev = o.sid
		}
	}
	return n
}

// temporalJoin extends a pattern id-list with an item id-list: the result
// holds occurrences where the item appears immediately after an occurrence
// of the pattern, per sequence. Both inputs are sorted by (sid, eid); so
// is the output.
func temporalJoin(pat, item []idOcc) []idOcc {
	var out []idOcc
	i, j := 0, 0
	for i < len(pat) && j < len(item) {
		switch {
		case pat[i].sid < item[j].sid:
			i++
		case pat[i].sid > item[j].sid:
			j++
		default:
			sid := pat[i].sid
			// Collect both sides' positions for this sequence.
			pi := i
			for pi < len(pat) && pat[pi].sid == sid {
				pi++
			}
			ji := j
			for ji < len(item) && item[ji].sid == sid {
				ji++
			}
			// Contiguous: item position must be exactly pattern end + 1.
			ends := map[int32]bool{}
			for k := i; k < pi; k++ {
				ends[pat[k].eid] = true
			}
			for k := j; k < ji; k++ {
				if ends[item[k].eid-1] {
					out = append(out, idOcc{sid, item[k].eid})
				}
			}
			i, j = pi, ji
		}
	}
	return out
}

// buildCMAP records ordered item pairs whose 2-pattern support reaches
// minSup; any longer pattern ending in a pair absent from the map cannot
// be frequent, so DFS extensions are pruned without a join.
func buildCMAP(db Dataset, p Params, minSup int) map[[2]Item]bool {
	counts := map[[2]Item]int{}
	for si, seq := range db {
		seen := map[[2]Item]bool{}
		for i := 0; i+1 < len(seq); i++ {
			seen[[2]Item{seq[i], seq[i+1]}] = true
		}
		//mars:mapiter-ok integer counting into a map is order-independent
		for k := range seen {
			counts[k] += p.weight(si)
		}
	}
	out := map[[2]Item]bool{}
	//mars:mapiter-ok building an unordered set is order-independent
	for k, c := range counts {
		if c >= minSup {
			out[k] = true
		}
	}
	return out
}
