package rca

import (
	"mars/internal/det"
	"mars/internal/topology"
)

// Compound-cause disambiguation (gray-failure signatures). The paper's
// five signatures each assume a single clean cause; gray episodes violate
// that. Three additional signatures, gated by Config.CompoundCauses, read
// the same diagnosis data for the evidence the paper's rules discard:
//
//   - link-degrade: ECMP divergence whose *starved* branch carries
//     abnormal latency or telemetry gaps. The imbalance is then a
//     reaction, not the root: weights were skewed away from a sick link,
//     so the light link outranks the divergence switch.
//   - link-flap: drop evidence that alternates with clean epochs —
//     steady loss (Drop) never heals mid-window, flapping does,
//     repeatedly.
//   - switch-reboot: loss fanning across many distinct path neighbors of
//     one switch — a single bad link cannot produce loss on every
//     adjacent direction at once.

// compoundBoost ranks a link-degrade root above the ECMP-divergence
// culprit derived from the same pattern: the root must win R@1 for
// disambiguation to matter.
const compoundBoost = 1.25

// degradedLightBranch looks for the link-degrade signature at divergence
// switch up: among the ECMP branches the pattern's flows take out of up,
// the heavy branch explains the congestion, and a light (starved) branch
// carrying its own degradation evidence — over-threshold packets or
// telemetry gaps on paths through it — exposes the root. Returns the
// [up, lightPeer] link and true when the evidence clears MinLinkEvidence.
func (a *Analyzer) degradedLightBranch(up topology.NodeID, through []flowPkts, stats []flowStats) ([]topology.NodeID, bool) {
	succCount := make(map[topology.NodeID]float64)
	succAbnormal := make(map[topology.NodeID]float64)
	succGapFlows := make(map[topology.NodeID]float64)
	for _, fp := range through {
		fs := &stats[fp.flow]
		flowGaps := float64(len(fs.gapEpochs))
		for _, ps := range fs.paths {
			path := ps.path
			for i := 0; i+1 < len(path); i++ {
				if path[i] != up {
					continue
				}
				w := path[i+1]
				succCount[w] += ps.pkts
				succAbnormal[w] += ps.abnormal
				if flowGaps > 0 {
					succGapFlows[w] += flowGaps
				}
				break
			}
		}
	}
	if len(succCount) < 2 {
		return nil, false
	}
	var heavy topology.NodeID
	best := -1.0
	for _, w := range det.Keys(succCount) {
		if succCount[w] > best {
			heavy, best = w, succCount[w]
		}
	}
	var light topology.NodeID
	bestEv := 0.0
	found := false
	for _, w := range det.Keys(succCount) {
		if w == heavy {
			continue
		}
		// Gaps are stronger evidence than latency: a starved branch sees
		// little traffic, so even a few missing telemetry epochs weigh in.
		ev := succAbnormal[w] + 2*succGapFlows[w]
		if ev > bestEv {
			light, bestEv, found = w, ev, true
		}
	}
	if !found || bestEv < a.Cfg.MinLinkEvidence {
		return nil, false
	}
	return []topology.NodeID{up, light}, true
}

// lossFlowCount counts pattern-traversing flows with cumulative loss
// beyond the drop margin (or telemetry gaps). The process-rate signature
// consults it under CompoundCauses: a congested link whose flows also
// lose packets is a degraded link, not a slow processing stage — queuing
// alone never destroys packets.
func (a *Analyzer) lossFlowCount(through []flowPkts, stats []flowStats) int {
	n := 0
	for _, fp := range through {
		fs := &stats[fp.flow]
		var src, sink uint64
		gap := false
		//mars:mapiter-ok pure sums over the flow's epochs
		for e, c := range fs.epochCounts {
			src += uint64(c)
			sink += uint64(fs.epochSinks[e])
			if fs.gapEpochs[e] {
				gap = true
			}
		}
		margin := uint64(a.dropMargin(uint32(min(src, 1<<31))))
		if gap || src > sink+margin {
			n++
		}
	}
	return n
}

// hardLossEpoch reports whether a flow epoch shows severe loss: the sink
// saw less than half of what the source sent (a down link or switch), or
// the epoch's telemetry went missing entirely. Probabilistic gray loss
// (a few percent) never qualifies — that distinction is what separates
// flapping and outages from silent degradation.
func (fs *flowStats) hardLossEpoch(e uint32) bool {
	src := fs.epochCounts[e]
	return fs.gapEpochs[e] || (src >= 4 && fs.epochSinks[e]*2 < src)
}

// flapTransitions counts hard-loss↔clean epoch alternations for one flow.
// Epochs with marginal loss (inside the drop margin, or partial but not
// severe) extend the current state rather than flipping it, so noisy
// counts cannot fabricate flapping. A single outage contributes at most
// two transitions (clean→down→clean); real flapping alternates repeatedly.
func (a *Analyzer) flapTransitions(fs *flowStats) int {
	trans := 0
	prevBad, first := false, true
	for _, e := range det.Keys(fs.epochCounts) {
		src := fs.epochCounts[e]
		hardBad := fs.hardLossEpoch(e)
		clean := !fs.gapEpochs[e] && src > 0 && fs.epochSinks[e]+a.dropMargin(src) >= src
		if !hardBad && !clean {
			continue // ambiguous epoch: keeps the current state
		}
		if first {
			prevBad, first = hardBad, false
			continue
		}
		if hardBad != prevBad {
			trans++
			prevBad = hardBad
		}
	}
	return trans
}

// classifyDropCause refines a drop pattern's cause under CompoundCauses
// by how the loss behaves over time and space:
//
//   - link-flap: the pattern's flows alternate repeatedly between
//     hard-loss and clean epochs (an outage heals at most once).
//   - switch-reboot: hard loss on a single-switch pattern fanning across
//     many distinct path neighbors — one bad link cannot starve every
//     adjacent direction at once.
//   - link-degrade: partial loss on a link pattern whose flows also carry
//     over-threshold latency — a rate-limited sick link queues what it
//     does not drop, while truly silent loss adds no delay.
//   - Drop otherwise (hard steady loss, e.g. a down link, or silent
//     partial loss with no latency side-channel).
func (a *Analyzer) classifyDropCause(ix *index, sub []topology.NodeID, affected []bool) Cause {
	maxTrans := 0
	hardLoss := false
	abnormalWeight := 0.0
	neighbors := make(map[topology.NodeID]bool)
	for _, flow := range ix.flows {
		fs := &ix.stats[flow]
		covers := false
		for _, ps := range fs.paths {
			path := ps.path
			if !path.Contains(sub) {
				continue
			}
			covers = true
			if affected[flow] {
				abnormalWeight += ps.abnormal
			}
			if len(sub) == 1 {
				for i, sw := range path {
					if sw != sub[0] {
						continue
					}
					if i > 0 {
						neighbors[path[i-1]] = true
					}
					if i+1 < len(path) {
						neighbors[path[i+1]] = true
					}
				}
			}
		}
		if covers && affected[flow] {
			if t := a.flapTransitions(fs); t > maxTrans {
				maxTrans = t
			}
			if !hardLoss {
				for _, e := range det.Keys(fs.epochCounts) {
					if fs.hardLossEpoch(e) {
						hardLoss = true
						break
					}
				}
			}
		}
	}
	// A flapping link destroys packets without delaying the survivors;
	// intermittent hard loss that comes WITH over-threshold latency is
	// congestion collapse (queue overflow), not an administrative flap.
	if a.Cfg.FlapMinTransitions > 0 && maxTrans >= a.Cfg.FlapMinTransitions &&
		abnormalWeight < a.Cfg.MinLinkEvidence {
		return CauseLinkFlap
	}
	if len(sub) == 1 && hardLoss && a.Cfg.RebootMinFan > 0 && len(neighbors) >= a.Cfg.RebootMinFan {
		return CauseSwitchReboot
	}
	if len(sub) == 2 && !hardLoss && abnormalWeight >= a.Cfg.MinLinkEvidence {
		return CauseLinkDegrade
	}
	return CauseDrop
}
