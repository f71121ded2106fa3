package rca

import (
	"slices"

	"mars/internal/topology"
)

// signature is one entry of a view's chain (§4.4.4): a predicate over a
// pattern's evidence and the verdict a match assigns. The chain is the
// paper's extension point (§5.6): a new signature is a new entry.
type signature struct {
	name  string
	cause Cause
	// compound entries are tried only under Config.CompoundCauses; an entry
	// that adds assigns its culprit without claiming the pattern.
	compound, adds bool
	match          func(a *Analyzer, ev *patternEvidence) bool
	// at places the culprit: level, location, and the factor of the
	// pattern's score it scores. perFlow, set instead, blames each
	// traversing flow the predicate marked (flowPkts.hit) at the pattern.
	at      func(ev *patternEvidence) (Level, []topology.NodeID, float64)
	perFlow func(ev *patternEvidence, fp flowPkts) float64
}

// latencyChain and dropChain are the two views' chains, in the order the
// walker tries them (DESIGN.md §14, One signature chain).
var (
	latencyChain = []signature{
		{name: "micro-burst", cause: CauseMicroBurst, match: (*Analyzer).bursting, perFlow: packetShare},
		{name: "link-degrade behind ECMP", cause: CauseLinkDegrade, compound: true, adds: true, match: (*Analyzer).degradedLightBranch, at: onStarvedBranch},
		{name: "ecmp-imbalance", cause: CauseECMPImbalance, match: (*Analyzer).imbalanced, at: onDivergence},
		{name: "link-degrade on a lossy link", cause: CauseLinkDegrade, compound: true, match: (*Analyzer).lossyCongestedLink, at: onPatternBoosted},
		{name: "process-rate", cause: CauseProcessRate, match: (*Analyzer).congested, at: onPattern},
		{name: "delay", cause: CauseDelay, match: always, at: onPattern},
	}
	dropChain = []signature{
		{name: "micro-burst", cause: CauseMicroBurst, match: (*Analyzer).bursting, perFlow: wholeScore},
		{name: "link-flap", cause: CauseLinkFlap, compound: true, match: (*Analyzer).flapping, at: onDropShare},
		{name: "switch-reboot", cause: CauseSwitchReboot, compound: true, match: (*Analyzer).rebooted, at: onDropShare},
		{name: "link-degrade", cause: CauseLinkDegrade, compound: true, match: (*Analyzer).lossWithLatency, at: onDropShare},
		{name: "drop", cause: CauseDrop, match: always, at: onDropShare},
	}
)

// walk tries the pattern ev holds against chain in order and appends the
// culprits of its matches, up to the first entry that claims the pattern.
func (a *Analyzer) walk(chain []signature, ev *patternEvidence, out []Culprit) []Culprit {
	for i := range chain {
		s := &chain[i]
		if s.compound && !a.Cfg.CompoundCauses || !s.match(a, ev) {
			continue
		}
		if s.perFlow == nil {
			level, loc, factor := s.at(ev)
			out = append(out, Culprit{Cause: s.cause, Level: level, Location: loc, Score: ev.sp.score * factor})
		} else {
			for _, fp := range ev.through {
				if fp.hit {
					flow := ev.ix.flowIDs[fp.flow]
					out = append(out, Culprit{Cause: s.cause, Level: LevelFlow, Flow: flow, Location: slices.Clone(ev.sp.sub), Score: ev.sp.score * s.perFlow(ev, fp)})
				}
			}
		}
		if !s.adds {
			break
		}
	}
	return out
}

// patternEvidence is what the signatures read about one scored pattern: the
// flows with packets through it and their total (of), the view's inputs,
// and parts computed on first ask, once per pattern. The Analyzer's working
// set holds one, reused for every pattern of every view.
type patternEvidence struct {
	ix      *index
	sp      scoredPattern
	through []flowPkts
	total   float64

	baseQ        float64 // latency: the normal records' median queue depth, at least 1
	affected     []bool  // drop: the abnormal set by flow number
	abnormalPkts float64 // drop: the abnormal set in estimated packets

	// the parts below computed for this pattern so far
	congestionKnown, voteKnown, lossKnown bool

	congested bool
	up        topology.NodeID // the divergence switch, if voted
	voted     bool
	link      []topology.NodeID // the starved branch behind it
	flaps     int               // the most hard-loss↔clean alternations of an affected flow
	hard      bool              // an affected flow shows hard loss in a counted epoch
	abnormal  float64           // the affected flows' over-threshold packets through the pattern
	fan       int               // a one-switch pattern's distinct path neighbours
	depths    []float64         // scratch for the pooled abnormal depths
}

// of points the evidence at sp: the flows with packets through it, in
// (Src, Sink) order, and their total, which it returns.
func (ev *patternEvidence) of(sp scoredPattern) float64 {
	ev.sp, ev.congestionKnown, ev.voteKnown, ev.lossKnown, ev.voted = sp, false, false, false, false
	ev.through, ev.total = ev.through[:0], 0
	for _, f := range ev.ix.flows {
		if cnt := ev.ix.stats[f].pktsThrough(sp.sub); cnt > 0 {
			ev.through = append(ev.through, flowPkts{flow: f, pkts: cnt})
			ev.total += cnt
		}
	}
	return ev.total
}

// always matches: each view's last entry claims what the others left.
func always(*Analyzer, *patternEvidence) bool { return true }

// The verdicts' placements: the pattern at its own level, boosted over its
// symptoms, or with its share of the drop view's abnormal packets; the
// divergence switch; the starved link; a flow's share of the traversing
// packets (Alg. 3) or the whole score.
func onPattern(ev *patternEvidence) (Level, []topology.NodeID, float64) {
	return patternLevel(ev.sp.sub), slices.Clone(ev.sp.sub), 1
}
func onPatternBoosted(ev *patternEvidence) (Level, []topology.NodeID, float64) {
	return patternLevel(ev.sp.sub), slices.Clone(ev.sp.sub), compoundBoost
}
func onDropShare(ev *patternEvidence) (Level, []topology.NodeID, float64) {
	return patternLevel(ev.sp.sub), slices.Clone(ev.sp.sub), ev.sp.npf / ev.abnormalPkts
}
func onDivergence(ev *patternEvidence) (Level, []topology.NodeID, float64) {
	return LevelSwitch, []topology.NodeID{ev.up}, 1
}
func onStarvedBranch(ev *patternEvidence) (Level, []topology.NodeID, float64) {
	return LevelPort, ev.link, compoundBoost
}
func packetShare(ev *patternEvidence, fp flowPkts) float64 { return fp.pkts / ev.total }
func wholeScore(*patternEvidence, flowPkts) float64        { return 1 }
