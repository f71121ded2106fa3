package rca

import "mars/internal/topology"

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

// The compound signatures' thresholds (this reproduction's, not the
// paper's: DESIGN.md §11).
const (
	// compoundBoost ranks a link-degrade root above the ECMP-divergence
	// culprit derived from the same pattern: the root must win R@1 for
	// disambiguation to matter.
	compoundBoost = 1.25
	// minLinkEvidence is the least degradation evidence (abnormal packet
	// weight plus weighted telemetry gaps) a starved ECMP branch must
	// carry before the link-degrade signature re-blames the light link.
	minLinkEvidence = 2
	// flapMinTransitions is the least number of bad↔clean epoch
	// alternations across a pattern's flows before drop evidence is
	// classified as flapping rather than steady loss.
	flapMinTransitions = 4
	// rebootMinFan is the least number of distinct path neighbors of a
	// single-switch drop pattern before the loss is classified as a
	// node-level outage (reboot) rather than one bad link.
	rebootMinFan = 3
)

// degradedLightBranch looks for the link-degrade signature at divergence
// switch up: among the ECMP branches the pattern's flows take out of up,
// the heavy branch explains the congestion, and a light (starved) branch
// carrying its own degradation evidence — over-threshold packets or
// telemetry gaps on paths through it — exposes the root. Returns the
// [up, lightPeer] link and true when the evidence clears minLinkEvidence.
func (a *Analyzer) degradedLightBranch(up topology.NodeID, through []flowPkts, stats []flowStats) ([]topology.NodeID, bool) {
	// Per successor of up: packets, abnormal packets, and the gap epochs of
	// the flows that take it.
	var succ []swSum
	for _, fp := range through {
		fs := &stats[fp.flow]
		var flowGaps float64
		for _, e := range fs.epochs {
			if e.gap {
				flowGaps++
			}
		}
		for _, ps := range fs.paths {
			path := ps.path
			for i := 0; i+1 < len(path); i++ {
				if path[i] != up {
					continue
				}
				var w *swSum
				succ, w = sumFor(succ, path[i+1])
				w.pkts += ps.pkts
				w.abnormal += ps.abnormal
				w.gaps += flowGaps
				break
			}
		}
	}
	if len(succ) < 2 {
		return nil, false
	}
	var heavy topology.NodeID
	best := -1.0
	for _, w := range succ {
		if w.pkts > best {
			heavy, best = w.sw, w.pkts
		}
	}
	var light topology.NodeID
	bestEv := 0.0
	found := false
	for _, w := range succ {
		if w.sw == heavy {
			continue
		}
		// Gaps are stronger evidence than latency: a starved branch sees
		// little traffic, so even a few missing telemetry epochs weigh in.
		ev := w.abnormal + 2*w.gaps
		if ev > bestEv {
			light, bestEv, found = w.sw, ev, true
		}
	}
	if !found || bestEv < minLinkEvidence {
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
		var src, sink uint64
		gap := false
		for _, e := range stats[fp.flow].epochs {
			if e.src > 0 {
				src += uint64(e.src)
				sink += uint64(e.sink)
				gap = gap || e.gap
			}
		}
		margin := uint64(a.dropMargin(uint32(min(src, 1<<31))))
		if gap || src > sink+margin {
			n++
		}
	}
	return n
}

// hardLoss reports whether a flow epoch shows severe loss: the sink saw
// less than half of what the source sent (a down link or switch), or the
// epoch's telemetry went missing entirely. Probabilistic gray loss (a few
// percent) never qualifies — that distinction is what separates flapping
// and outages from silent degradation.
func (e epochStat) hardLoss() bool {
	return e.gap || (e.src >= 4 && e.sink*2 < e.src)
}

// flapTransitions counts hard-loss↔clean epoch alternations for one flow.
// Epochs with marginal loss (inside the drop margin, or partial but not
// severe) extend the current state rather than flipping it, so noisy
// counts cannot fabricate flapping. A single outage contributes at most
// two transitions (clean→down→clean); real flapping alternates repeatedly.
func (a *Analyzer) flapTransitions(fs *flowStats) int {
	trans := 0
	prevBad, first := false, true
	for _, e := range fs.epochs {
		if e.src == 0 {
			continue
		}
		hardBad := e.hardLoss()
		clean := !e.gap && e.sink+a.dropMargin(e.src) >= e.src
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
func (a *Analyzer) classifyDropCause(ix *index, sub []topology.NodeID, through []flowPkts, affected []bool) Cause {
	maxTrans := 0
	hardLoss := false
	abnormalWeight := 0.0
	var neighbors []swSum // only counted
	for _, fp := range through {
		fs := &ix.stats[fp.flow]
		for _, ps := range fs.paths {
			path := ps.path
			if !path.Contains(sub) {
				continue
			}
			if affected[fp.flow] {
				abnormalWeight += ps.abnormal
			}
			if len(sub) == 1 {
				for i, sw := range path {
					if sw != sub[0] {
						continue
					}
					if i > 0 {
						neighbors, _ = sumFor(neighbors, path[i-1])
					}
					if i+1 < len(path) {
						neighbors, _ = sumFor(neighbors, path[i+1])
					}
				}
			}
		}
		if affected[fp.flow] {
			maxTrans = max(maxTrans, a.flapTransitions(fs))
			for _, e := range fs.epochs {
				hardLoss = hardLoss || (e.src > 0 && e.hardLoss())
			}
		}
	}
	// A flapping link destroys packets without delaying the survivors;
	// intermittent hard loss that comes WITH over-threshold latency is
	// congestion collapse (queue overflow), not an administrative flap.
	if maxTrans >= flapMinTransitions &&
		abnormalWeight < minLinkEvidence {
		return CauseLinkFlap
	}
	if len(sub) == 1 && hardLoss && len(neighbors) >= rebootMinFan {
		return CauseSwitchReboot
	}
	if len(sub) == 2 && !hardLoss && abnormalWeight >= minLinkEvidence {
		return CauseLinkDegrade
	}
	return CauseDrop
}
