package rca

import "mars/internal/topology"

// Compound-cause disambiguation (gray-failure signatures): the five chain
// entries Config.CompoundCauses inserts read the evidence the paper's
// signatures, each assuming a single clean cause, discard.

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

// degradedLightBranch is the link-degrade signature behind an ECMP
// imbalance at divergence switch up: among the branches the pattern's flows
// take out of up, the heavy branch explains the congestion, and a light
// (starved) branch carrying its own degradation evidence — over-threshold
// packets or telemetry gaps on paths through it — exposes the root. It
// matches, keeping the [up, lightPeer] link in ev.link, when the evidence
// clears minLinkEvidence.
func (a *Analyzer) degradedLightBranch(ev *patternEvidence) bool {
	if !a.imbalanced(ev) {
		return false
	}
	// Per successor of up: packets, abnormal packets, and the gap epochs of
	// the flows that take it.
	up := ev.up
	var succ []swSum
	for _, fp := range ev.through {
		fs := &ev.ix.stats[fp.flow]
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
		return false
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
		evidence := w.abnormal + 2*w.gaps
		if evidence > bestEv {
			light, bestEv, found = w.sw, evidence, true
		}
	}
	if !found || bestEv < minLinkEvidence {
		return false
	}
	ev.link = []topology.NodeID{up, light}
	return true
}

// lossFlowCount counts pattern-traversing flows with cumulative loss
// beyond the drop margin (or telemetry gaps).
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

// lossyCongestedLink is the link-degrade signature on a congested link
// whose flows also lose packets: a degraded link, not a slow processing
// stage — queuing delays packets but never destroys them.
func (a *Analyzer) lossyCongestedLink(ev *patternEvidence) bool {
	return len(ev.sp.sub) == 2 && a.congested(ev) && a.lossFlowCount(ev.through, ev.ix.stats) >= 2
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

// loss reads how the pattern's loss behaves over time and space, the
// compound drop entries' evidence, from its traversing flows on first ask.
func (a *Analyzer) loss(ev *patternEvidence) {
	if ev.lossKnown {
		return
	}
	ev.lossKnown = true
	sub := ev.sp.sub
	ev.flaps, ev.hard, ev.abnormal = 0, false, 0
	var neighbors []swSum // only counted
	for _, fp := range ev.through {
		fs, affected := &ev.ix.stats[fp.flow], ev.affected[fp.flow]
		for _, ps := range fs.paths {
			path := ps.path
			if !path.Contains(sub) {
				continue
			}
			if affected {
				ev.abnormal += ps.abnormal
			}
			for i := 0; len(sub) == 1 && i < len(path); i++ {
				if path[i] != sub[0] {
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
		if affected {
			ev.flaps = max(ev.flaps, a.flapTransitions(fs))
			for _, e := range fs.epochs {
				ev.hard = ev.hard || (e.src > 0 && e.hardLoss())
			}
		}
	}
	ev.fan = len(neighbors)
}

// flapping is the link-flap signature: the pattern's flows alternate
// repeatedly between hard-loss and clean epochs (an outage heals at most
// once) without latency — hard loss WITH latency is congestion collapse.
func (a *Analyzer) flapping(ev *patternEvidence) bool {
	a.loss(ev)
	return ev.flaps >= flapMinTransitions && ev.abnormal < minLinkEvidence
}

// rebooted is the switch-reboot signature: hard loss on a one-switch
// pattern fanning across its neighbours, which one bad link cannot do.
func (a *Analyzer) rebooted(ev *patternEvidence) bool {
	a.loss(ev)
	return len(ev.sp.sub) == 1 && ev.hard && ev.fan >= rebootMinFan
}

// lossWithLatency is the drop view's link-degrade signature: partial loss
// with latency on a link — a rate-limited sick link queues what it does
// not drop, while truly silent loss adds no delay.
func (a *Analyzer) lossWithLatency(ev *patternEvidence) bool {
	a.loss(ev)
	return len(ev.sp.sub) == 2 && !ev.hard && ev.abnormal >= minLinkEvidence
}
