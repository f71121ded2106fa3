package fsm

import "mars/internal/det"

// GSP is the generate-and-test miner of Srikant & Agrawal (EDBT'96):
// level-wise Apriori over sequences. Level k candidates are generated by
// joining frequent (k-1)-patterns whose tails/heads overlap, pruned by the
// Apriori property, then counted with a database scan. Its repeated full
// scans make it the slowest algorithm on MARS's workload, matching its
// position in Fig. 11.
type GSP struct {
	items PrefixSpan // counts level 1
}

// NewGSP returns a GSP miner.
func NewGSP() *GSP { return &GSP{} }

// Name implements Miner.
func (*GSP) Name() string { return "GSP" }

// Mine implements Miner.
func (g *GSP) Mine(db Dataset, p Params) []Pattern {
	minSup := p.minSupport(len(db))
	maxLen := p.maxLen()

	level := g.items.Mine(db, Params{MinRelSupport: p.MinRelSupport, MaxLen: 1, Weights: p.Weights})
	out := append([]Pattern{}, level...)

	for k := 2; k <= maxLen && len(level) > 0; k++ {
		// Join: a=(x1..xk-1), b=(y1..yk-1) with a[1:] == b[:k-2] produce
		// candidate a + yk-1.
		prevKeys := map[string]bool{}
		for _, pt := range level {
			prevKeys[seqKey(pt.Items)] = true
		}
		candSet := map[string][]Item{}
		for _, a := range level {
			for _, b := range level {
				if !tailHeadMatch(a.Items, b.Items) {
					continue
				}
				cand := append(append([]Item{}, a.Items...), b.Items[len(b.Items)-1])
				// Apriori prune: every contiguous (k-1)-sub must be frequent.
				if k > 2 && !allSubsFrequent(cand, prevKeys) {
					continue
				}
				candSet[seqKey(cand)] = cand
			}
		}
		var next []Pattern
		for _, ck := range det.Keys(candSet) {
			cand := candSet[ck]
			sup := 0
			for si, seq := range db {
				if Contains(seq, cand) {
					sup += p.weight(si)
				}
			}
			if sup >= minSup {
				next = append(next, Pattern{Items: cand, Support: sup})
			}
		}
		out = append(out, next...)
		level = next
	}
	return sortPatterns(out)
}

// tailHeadMatch reports whether dropping a's first item equals dropping
// b's last item (the GSP join condition). For 1-patterns it is always
// true (every ordered pair is a level-2 candidate).
func tailHeadMatch(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 1; i < len(a); i++ {
		if a[i] != b[i-1] {
			return false
		}
	}
	return true
}

// allSubsFrequent applies the Apriori property over the two maximal
// proper contiguous subsequences (prefix and suffix) — sufficient for the
// contiguous join used here.
func allSubsFrequent(cand []Item, prev map[string]bool) bool {
	return prev[seqKey(cand[:len(cand)-1])] && prev[seqKey(cand[1:])]
}
