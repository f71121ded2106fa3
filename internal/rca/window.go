package rca

import (
	"slices"

	"mars/internal/dataplane"
	"mars/internal/netsim"
)

// AnalyzeWindow is the streaming entry point: it runs the same latency and
// drop pipelines as Analyze over one sliding window's records, without a
// data-plane trigger to arbitrate between them. A batch diagnosis is
// notification-driven — the trigger kind decides whether the drop pipeline
// runs alongside the latency one. A window has no single trigger, so both
// views are always cross-checked: the latency findings stand, and any
// sustained cumulative drop evidence in the window adds (or supplies) drop
// culprits, merged under the same rules as cross-diagnosis merging.
//
// coverage is the window's record coverage in [0,1]: the fraction of
// offered sink records that survived the unit's bounded-memory sampler.
// It takes the place of a collection's sink coverage and scales every
// culprit's Confidence, so the cross-unit merge keeps the best-covered
// support for each culprit, exactly as the batch path does across partial
// collections.
func (a *Analyzer) AnalyzeWindow(records []dataplane.RTRecord, now netsim.Time, coverage float64) []Culprit {
	ix := a.index(evidence{records: records, now: now})
	out := a.analyzeLatency(ix)
	if affected := a.dropAffectedFlows(ix); slices.Contains(affected, true) {
		// Evidence without a mineable pattern keeps the latency view.
		if drop := a.analyzeDrop(ix, affected); len(drop) > 0 {
			out = combineViews(out, drop)
		}
	}
	if coverage < 0 {
		coverage = 0
	}
	if coverage > 1 {
		coverage = 1
	}
	return withConfidence(out, coverage)
}
