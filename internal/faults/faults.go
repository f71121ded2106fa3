// Package faults injects the paper's five fault scenarios (§5.2) into a
// running simulation and records the ground truth needed to score
// localization:
//
//   - Micro-burst: a transient flow at >1000 pps for about a second.
//   - ECMP load imbalance: a randomly picked switch's equal split is skewed
//     to a ratio between 1:4 and 1:10.
//   - Process-rate decrease: one port of a random switch is limited below
//     100 pps.
//   - Delay: switch-level extra latency outside the queue (Chaosblade-style
//     interface injection).
//   - Drop: probabilistic loss on a random inter-switch port.
//
// A sixth, beyond-the-paper scenario degrades the monitoring system
// itself: CtrlChanDegrade makes the controller↔switch control channel
// lossy, exercising the control plane's retry and degraded-diagnosis
// machinery (see internal/ctrlchan).
//
// Beyond those single-shot scenarios, the package models the gray
// failures real fabrics actually see — silent partial drop, link
// flapping, hard link failure, switch reboots that wipe register state,
// and a degraded uplink whose ECMP reaction masquerades as a switch
// fault. Gray faults compose into timed, overlapping Schedules (see
// schedule.go) whose Episode ground truth records causal links between
// co-injected faults.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mars/internal/ctrlchan"
	"mars/internal/netsim"
	"mars/internal/topology"
	"mars/internal/workload"
)

// Kind enumerates the fault scenarios.
type Kind uint8

const (
	// MicroBurst is the flow-level scenario.
	MicroBurst Kind = iota
	// ECMPImbalance is the switch-level scenario.
	ECMPImbalance
	// ProcessRateDecrease is the port/switch-level slow-drain scenario.
	ProcessRateDecrease
	// Delay is out-of-queue latency at a switch.
	Delay
	// Drop is unanticipated packet loss at a port.
	Drop
	// CtrlChanDegrade is the control-plane-level scenario (this
	// repository's addition): the controller↔switch channel itself loses
	// messages, so notifications, collections, refresh pulls, and
	// threshold pushes all become unreliable while the data plane keeps
	// forwarding normally.
	CtrlChanDegrade
	// SilentDrop is a gray failure: a low (3-12%) loss rate on an
	// inter-switch port — too small to blackhole flows, often too small
	// to cross the data plane's notification margins, silently corroding
	// goodput.
	SilentDrop
	// LinkFlap toggles a link down and up with a seeded period and duty
	// cycle, the classic intermittent-optics symptom.
	LinkFlap
	// LinkDown fails a link outright for the whole window (topology
	// churn: ECMP keeps hashing onto the dead link until weights react).
	LinkDown
	// SwitchReboot takes a switch dark for the window and flushes its
	// IT/ET/RT register state on recovery, erasing mid-epoch telemetry.
	SwitchReboot
	// UplinkDegrade is the compound gray scenario: one uplink is
	// rate-limited with silent loss (the root) and ECMP weights react by
	// skewing traffic away from it (the consequence). The paper's ECMP
	// signature blames the switch; compound-cause RCA must rank the
	// degraded link.
	UplinkDegrade
)

// Kinds lists the single-shot scenarios in the paper's Table 1 order.
// CtrlChanDegrade and the gray kinds are not part of the Table 1 suite —
// they are swept by the ctrlchan and gray experiments instead.
func Kinds() []Kind {
	return []Kind{MicroBurst, ECMPImbalance, ProcessRateDecrease, Delay, Drop}
}

// GrayKinds lists the gray-failure scenario family in grid order.
func GrayKinds() []Kind {
	return []Kind{SilentDrop, LinkFlap, LinkDown, SwitchReboot, UplinkDegrade}
}

// AllKinds lists every parseable scenario.
func AllKinds() []Kind {
	all := append(Kinds(), CtrlChanDegrade)
	return append(all, GrayKinds()...)
}

func (k Kind) String() string {
	switch k {
	case MicroBurst:
		return "micro-burst"
	case ECMPImbalance:
		return "ecmp-imbalance"
	case ProcessRateDecrease:
		return "process-rate"
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case CtrlChanDegrade:
		return "ctrl-chan"
	case SilentDrop:
		return "silent-drop"
	case LinkFlap:
		return "link-flap"
	case LinkDown:
		return "link-down"
	case SwitchReboot:
		return "switch-reboot"
	case UplinkDegrade:
		return "uplink-degrade"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Parse maps a scenario name (as printed by Kind.String, matched
// case-insensitively) to its Kind. Every kind parses, including ctrl-chan
// and the gray family. The error for an unknown name lists the valid set
// in sorted order, so CLI surfaces can echo it directly and the message is
// stable across enum reorderings.
func Parse(name string) (Kind, error) {
	all := AllKinds()
	for _, k := range all {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	names := make([]string, len(all))
	for i, k := range all {
		names[i] = k.String()
	}
	sort.Strings(names)
	return 0, fmt.Errorf("faults: unknown fault %q (valid: %s)", name, strings.Join(names, ", "))
}

// GroundTruth describes the injected fault for scoring.
type GroundTruth struct {
	Kind Kind
	// Switch is the culprit switch (the skewed switch for ECMP, the slow /
	// delayed / dropping switch otherwise; the burst flow's source edge
	// switch for micro-bursts; the link's A-side for link faults).
	Switch topology.NodeID
	// Port is the culprit egress port where the fault is port-scoped
	// (process rate, drop, silent drop, link faults, uplink degrade);
	// -1 otherwise.
	Port topology.PortID
	// Peer is the node on the far side of the culprit port for
	// link-scoped faults; -1 otherwise. A port-level culprit that names
	// {Switch, Peer} has localized the link exactly.
	Peer topology.NodeID
	// Link is the affected link for link-scoped faults; -1 otherwise.
	Link topology.LinkID
	// BurstSrcEdge/BurstSinkEdge identify the offending flow for
	// micro-bursts.
	BurstSrcEdge, BurstSinkEdge topology.NodeID
	// CtrlLoss is the control-channel loss probability for
	// CtrlChanDegrade; 0 otherwise.
	CtrlLoss float64
	// Start and End bound the fault's active window.
	Start, End netsim.Time
	// Handle guards the injection's apply/revert lifecycle (see
	// schedule.go). Reverting through it before End cuts the fault short;
	// double reverts are errors, not silent state corruption.
	Handle *Handle
}

func (g GroundTruth) String() string {
	switch g.Kind {
	case MicroBurst:
		return fmt.Sprintf("%v flow <s%d,s%d> [%v,%v]", g.Kind, g.BurstSrcEdge, g.BurstSinkEdge, g.Start, g.End)
	case ProcessRateDecrease, Drop, SilentDrop:
		return fmt.Sprintf("%v s%d port %d [%v,%v]", g.Kind, g.Switch, g.Port, g.Start, g.End)
	case LinkFlap, LinkDown:
		return fmt.Sprintf("%v s%d<->s%d [%v,%v]", g.Kind, g.Switch, g.Peer, g.Start, g.End)
	case UplinkDegrade:
		return fmt.Sprintf("%v s%d->s%d port %d [%v,%v]", g.Kind, g.Switch, g.Peer, g.Port, g.Start, g.End)
	case CtrlChanDegrade:
		return fmt.Sprintf("%v loss=%.0f%% [%v,%v]", g.Kind, 100*g.CtrlLoss, g.Start, g.End)
	case ECMPImbalance, Delay, SwitchReboot:
		// Switch-scoped kinds share the rendering below.
	}
	return fmt.Sprintf("%v s%d [%v,%v]", g.Kind, g.Switch, g.Start, g.End)
}

// Injector plants faults into a simulation over a fat-tree.
type Injector struct {
	Sim    *netsim.Simulator
	FT     *topology.FatTree
	Router *netsim.ECMPRouter
	// Chan is the control channel degraded by CtrlChanDegrade; leaving it
	// nil (a deployment without an explicit channel) makes that scenario
	// unavailable.
	Chan *ctrlchan.Channel
	// Registers, when set, is flushed on SwitchReboot recovery (the
	// dataplane Program in a full deployment).
	Registers RegisterFlusher
	// ScheduleSeed seeds the per-injection RNGs of Apply. Zero means
	// "derive one from the shared sim RNG at first use".
	ScheduleSeed int64
	rng          *rand.Rand
}

// NewInjector creates an injector drawing randomness from the simulator's
// seeded source (so trials are reproducible).
func NewInjector(sim *netsim.Simulator, ft *topology.FatTree, router *netsim.ECMPRouter) *Injector {
	return &Injector{Sim: sim, FT: ft, Router: router, rng: sim.RNG()}
}

// interSwitchPorts lists sw's ports whose peer is a switch.
func (in *Injector) interSwitchPorts(sw topology.NodeID) []topology.PortID {
	var out []topology.PortID
	for i, p := range in.FT.Node(sw).Ports {
		if in.FT.IsSwitch(p.Peer) {
			out = append(out, topology.PortID(i))
		}
	}
	return out
}

// Inject schedules a single fault of the given kind over [start,
// start+dur] and returns its ground truth. It draws from the shared sim
// RNG, preserving the draw sequence seeded experiments pin; composed
// episodes use Apply instead.
func (in *Injector) Inject(kind Kind, start, dur netsim.Time) GroundTruth {
	ep := &Episode{}
	idx := in.plan(kind, start, dur, in.rng, ep, -1)
	return ep.Faults[idx].GT
}

// plan materializes one injection: draws its parameters from rng, arms
// guarded apply/revert events on the agenda, and appends its ground truth
// (plus any consequence faults) to ep. It returns the index of the root
// fault it appended.
func (in *Injector) plan(kind Kind, start, dur netsim.Time, rng *rand.Rand, ep *Episode, causedBy int) int {
	gt := GroundTruth{Kind: kind, Port: -1, Peer: -1, Link: -1, Start: start, End: start + dur}
	var h *Handle
	switch kind {
	case MicroBurst:
		hosts := in.FT.HostIDs
		src := hosts[rng.Intn(len(hosts))]
		srcEdge, _ := in.FT.EdgeSwitchOf(src)
		// The burst must cross the fabric to be observable: pick a
		// destination behind a different edge switch.
		var dst topology.NodeID
		var sinkEdge topology.NodeID
		for {
			dst = hosts[rng.Intn(len(hosts))]
			sinkEdge, _ = in.FT.EdgeSwitchOf(dst)
			if sinkEdge != srcEdge {
				break
			}
		}
		gt.Switch = srcEdge
		gt.BurstSrcEdge, gt.BurstSinkEdge = srcEdge, sinkEdge
		pps := 1000 + rng.Float64()*1000 // >1000 pps, paper §5.2
		key := netsim.FlowKey(0xB0000000 + uint64(rng.Intn(1<<20)))
		workload.Burst(in.Sim, src, dst, key, pps, start, dur, 1000)
		// The burst traffic is already on the agenda; there is nothing to
		// apply later and nothing a revert could unsend.
		h = &Handle{kind: kind, applied: true}

	case ECMPImbalance:
		// Pick a switch with an equal-cost choice: any edge or aggregation
		// switch (K/2 uplinks each).
		var cands []topology.NodeID
		cands = append(cands, in.FT.EdgeIDs...)
		cands = append(cands, in.FT.AggIDs...)
		sw := cands[rng.Intn(len(cands))]
		gt.Switch = sw
		// Skew toward one uplink with ratio 1:r, r in [4,10].
		r := int32(4 + rng.Intn(7))
		ups := in.uplinks(sw)
		skewed := ups[rng.Intn(len(ups))]
		var prev map[topology.NodeID]int32
		h = in.newHandle(kind,
			func() {
				prev = in.Router.WeightsAt(sw)
				in.Router.SetWeight(sw, skewed, r)
			},
			func() { in.Router.RestoreWeights(sw, prev) })
		in.scheduleWindow(h, start, gt.End)

	case ProcessRateDecrease:
		sw := in.randomSwitch(rng)
		ports := in.interSwitchPorts(sw)
		port := ports[rng.Intn(len(ports))]
		gt.Switch, gt.Port = sw, port
		// The paper limits the port below 100 pps against ~200 pps flows —
		// about half the port's typical load. Scaled to this substrate's
		// ~1000-1200 pps uplinks: a 150-400 pps cap reproduces the same
		// queue-buildup-with-stable-input symptom without turning the port
		// into a blackhole.
		pps := 150 + rng.Float64()*250
		var prev float64
		h = in.newHandle(kind,
			func() {
				prev = in.Sim.PortRateLimit(sw, port)
				in.Sim.SetPortRateLimit(sw, port, pps)
			},
			func() { in.Sim.SetPortRateLimit(sw, port, prev) })
		in.scheduleWindow(h, start, gt.End)

	case Delay:
		sw := in.randomSwitch(rng)
		gt.Switch = sw
		d := netsim.Time(20+rng.Intn(80)) * netsim.Millisecond
		var prev netsim.Time
		h = in.newHandle(kind,
			func() {
				prev = in.Sim.SwitchExtraDelay(sw)
				in.Sim.SetSwitchExtraDelay(sw, d)
			},
			func() { in.Sim.SetSwitchExtraDelay(sw, prev) })
		in.scheduleWindow(h, start, gt.End)

	case Drop:
		sw := in.randomSwitch(rng)
		ports := in.interSwitchPorts(sw)
		port := ports[rng.Intn(len(ports))]
		gt.Switch, gt.Port = sw, port
		p := 0.4 + rng.Float64()*0.5
		h = in.dropHandle(kind, sw, port, p)
		in.scheduleWindow(h, start, gt.End)

	case CtrlChanDegrade:
		// A randomly drawn loss rate in the 10-30% band the ctrlchan
		// experiment sweeps; use InjectCtrlChanLoss for an exact rate.
		return in.planCtrlLoss(start, dur, 0.1+rng.Float64()*0.2, ep, causedBy)

	case SilentDrop:
		sw := in.randomSwitch(rng)
		ports := in.interSwitchPorts(sw)
		port := ports[rng.Intn(len(ports))]
		gt.Switch, gt.Port = sw, port
		gt.Peer = in.FT.Node(sw).Ports[port].Peer
		gt.Link = in.FT.Node(sw).Ports[port].Link
		// Low enough that per-epoch per-flow deltas usually sit inside the
		// data plane's notification margins — the gray part.
		p := 0.03 + rng.Float64()*0.09
		h = in.dropHandle(kind, sw, port, p)
		in.scheduleWindow(h, start, gt.End)

	case LinkDown:
		link := in.randomInterSwitchLink(rng)
		in.fillLinkGT(&gt, link)
		h = in.linkDownHandle(kind, link)
		in.scheduleWindow(h, start, gt.End)

	case LinkFlap:
		link := in.randomInterSwitchLink(rng)
		in.fillLinkGT(&gt, link)
		// Multi-epoch periods: the telemetry epoch is 100 ms, so sub-epoch
		// flapping would average into steady partial loss and be
		// indistinguishable from SilentDrop in any epoch-granular evidence.
		period := netsim.Time(300+rng.Intn(300)) * netsim.Millisecond
		duty := 0.3 + rng.Float64()*0.4 // fraction of each period spent down
		downFor := netsim.Time(float64(period) * duty)
		h = in.linkDownHandle(kind, link)
		in.scheduleWindow(h, start, gt.End)
		// The toggle timeline is planned up front so runtime draws no RNG;
		// each toggle checks the handle so an early revert stops the flap.
		hh := h
		for t := start; t < gt.End; t += period {
			if up := t + downFor; up < gt.End {
				in.Sim.At(up, func() {
					if hh.active() {
						in.Sim.SetLinkUp(link, true)
					}
				})
			}
			if dn := t + period; dn < gt.End {
				in.Sim.At(dn, func() {
					if hh.active() {
						in.Sim.SetLinkUp(link, false)
					}
				})
			}
		}

	case SwitchReboot:
		sw := in.randomSwitch(rng)
		gt.Switch = sw
		h = in.newHandle(kind,
			func() { in.Sim.SetSwitchDown(sw, true) },
			func() {
				in.Sim.SetSwitchDown(sw, false)
				// Coming back up with empty register arrays is what makes
				// a reboot gray: the fabric forwards again but the switch
				// has amnesia about every flow mid-epoch.
				if in.Registers != nil {
					in.Registers.FlushSwitch(sw)
				}
			})
		in.scheduleWindow(h, start, gt.End)

	case UplinkDegrade:
		return in.planUplinkDegrade(start, dur, rng, ep, causedBy)

	default:
		panic(fmt.Sprintf("faults: cannot plan unknown kind %v", kind))
	}
	gt.Handle = h
	idx := len(ep.Faults)
	ep.Faults = append(ep.Faults, Fault{GT: gt, CausedBy: causedBy})
	return idx
}

// dropHandle builds a guarded apply/revert pair for probabilistic loss on
// one egress port, restoring whatever probability it displaced.
func (in *Injector) dropHandle(kind Kind, sw topology.NodeID, port topology.PortID, p float64) *Handle {
	var prev float64
	return in.newHandle(kind,
		func() {
			prev = in.Sim.PortDropProb(sw, port)
			in.Sim.SetPortDropProb(sw, port, p)
		},
		func() { in.Sim.SetPortDropProb(sw, port, prev) })
}

// linkDownHandle builds a guarded apply/revert pair that lowers a link and
// restores its previous administrative state.
func (in *Injector) linkDownHandle(kind Kind, link topology.LinkID) *Handle {
	var prevUp bool
	return in.newHandle(kind,
		func() {
			prevUp = in.Sim.LinkUp(link)
			in.Sim.SetLinkUp(link, false)
		},
		func() { in.Sim.SetLinkUp(link, prevUp) })
}

// randomInterSwitchLink picks uniformly among switch-to-switch links.
func (in *Injector) randomInterSwitchLink(rng *rand.Rand) topology.LinkID {
	links := in.FT.InterSwitchLinks()
	return links[rng.Intn(len(links))]
}

// fillLinkGT records a link fault's location: A-side switch and port, peer
// and link ID.
func (in *Injector) fillLinkGT(gt *GroundTruth, link topology.LinkID) {
	l := in.FT.Links[link]
	gt.Switch, gt.Port, gt.Peer, gt.Link = l.A, l.APort, l.B, link
}

// planUplinkDegrade materializes the compound scenario: the root fault is
// a rate-limited, silently lossy uplink; the consequence is the ECMP
// reaction that skews traffic away from it about 150 ms later. The
// consequence's congestion on the healthy branches is what the paper's
// ECMP signature sees — and blames the switch for.
func (in *Injector) planUplinkDegrade(start, dur netsim.Time, rng *rand.Rand, ep *Episode, causedBy int) int {
	var cands []topology.NodeID
	cands = append(cands, in.FT.EdgeIDs...)
	cands = append(cands, in.FT.AggIDs...)
	sw := cands[rng.Intn(len(cands))]
	ups := in.uplinks(sw)
	peer := ups[rng.Intn(len(ups))]
	port, _ := in.FT.PortTo(sw, peer)
	gt := GroundTruth{
		Kind: UplinkDegrade, Switch: sw, Port: port, Peer: peer,
		Link:  in.FT.Node(sw).Ports[port].Link,
		Start: start, End: start + dur,
	}
	// The limit sits well under the uplink's fair share, so until the
	// reroute reacts the port queues and drops visibly, and even the
	// post-reroute minority share keeps it marginally saturated — the
	// degradation stays observable without being an outright outage.
	pps := 60 + rng.Float64()*60
	loss := 0.03 + rng.Float64()*0.05
	var prevRate, prevDrop float64
	h := in.newHandle(UplinkDegrade,
		func() {
			prevRate = in.Sim.PortRateLimit(sw, port)
			prevDrop = in.Sim.PortDropProb(sw, port)
			in.Sim.SetPortRateLimit(sw, port, pps)
			in.Sim.SetPortDropProb(sw, port, loss)
		},
		func() {
			in.Sim.SetPortRateLimit(sw, port, prevRate)
			in.Sim.SetPortDropProb(sw, port, prevDrop)
		})
	in.scheduleWindow(h, start, gt.End)
	gt.Handle = h
	rootIdx := len(ep.Faults)
	ep.Faults = append(ep.Faults, Fault{GT: gt, CausedBy: causedBy})

	// The ECMP reaction: every healthy uplink gains weight r, starving the
	// degraded one. Recorded as a consequence fault caused by the root.
	r := int32(3 + rng.Intn(4))
	var others []topology.NodeID
	for _, u := range ups {
		if u != peer {
			others = append(others, u)
		}
	}
	cstart := start + 150*netsim.Millisecond
	if cstart > gt.End {
		cstart = start
	}
	cgt := GroundTruth{
		Kind: ECMPImbalance, Switch: sw, Port: -1, Peer: -1, Link: -1,
		Start: cstart, End: gt.End,
	}
	var prevW map[topology.NodeID]int32
	ch := in.newHandle(ECMPImbalance,
		func() {
			prevW = in.Router.WeightsAt(sw)
			for _, via := range others {
				in.Router.SetWeight(sw, via, r)
			}
		},
		func() { in.Router.RestoreWeights(sw, prevW) })
	in.scheduleWindow(ch, cstart, cgt.End)
	cgt.Handle = ch
	ep.Faults = append(ep.Faults, Fault{GT: cgt, CausedBy: rootIdx})
	return rootIdx
}

// InjectCtrlChanLoss degrades the control channel to the given symmetric
// loss probability over [start, start+dur]. The data plane is untouched:
// only the monitoring system's own messaging suffers.
func (in *Injector) InjectCtrlChanLoss(start, dur netsim.Time, loss float64) GroundTruth {
	ep := &Episode{}
	idx := in.planCtrlLoss(start, dur, loss, ep, -1)
	return ep.Faults[idx].GT
}

func (in *Injector) planCtrlLoss(start, dur netsim.Time, loss float64, ep *Episode, causedBy int) int {
	if in.Chan == nil {
		panic("faults: CtrlChanDegrade requires an attached ctrlchan.Channel")
	}
	gt := GroundTruth{
		Kind: CtrlChanDegrade, Switch: -1, Port: -1, Peer: -1, Link: -1,
		CtrlLoss: loss, Start: start, End: start + dur,
	}
	var prevUp, prevDown float64
	h := in.newHandle(CtrlChanDegrade,
		func() {
			prevUp = in.Chan.Loss(ctrlchan.ToController)
			prevDown = in.Chan.Loss(ctrlchan.ToSwitch)
			in.Chan.SetLoss(ctrlchan.ToController, loss)
			in.Chan.SetLoss(ctrlchan.ToSwitch, loss)
		},
		func() {
			in.Chan.SetLoss(ctrlchan.ToController, prevUp)
			in.Chan.SetLoss(ctrlchan.ToSwitch, prevDown)
		})
	in.scheduleWindow(h, start, gt.End)
	gt.Handle = h
	idx := len(ep.Faults)
	ep.Faults = append(ep.Faults, Fault{GT: gt, CausedBy: causedBy})
	return idx
}

// uplinks returns the next-hop switches above sw (toward the core).
func (in *Injector) uplinks(sw topology.NodeID) []topology.NodeID {
	var ups []topology.NodeID
	layer := in.FT.Node(sw).Layer
	for _, p := range in.FT.Node(sw).Ports {
		peer := p.Peer
		if !in.FT.IsSwitch(peer) {
			continue
		}
		pl := in.FT.Node(peer).Layer
		if (layer == topology.LayerEdge && pl == topology.LayerAggregation) ||
			(layer == topology.LayerAggregation && pl == topology.LayerCore) {
			ups = append(ups, peer)
		}
	}
	return ups
}

// randomSwitch picks uniformly among all switches.
func (in *Injector) randomSwitch(rng *rand.Rand) topology.NodeID {
	sws := in.FT.Switches()
	return sws[rng.Intn(len(sws))]
}
