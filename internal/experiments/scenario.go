// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), shared by cmd/mars-bench and the root
// benchmarks. Each driver returns a plain data structure plus a formatted
// text rendering, so EXPERIMENTS.md can record paper-vs-measured rows.
//
// Every trial-based driver (Table 1, Fig. 9, ctrlchan, overhead, gray, the
// ablations, the arity sweep) is a row list handed to sweep (sweep.go) plus
// a fold over the results of each row. sweep alone enumerates the rows x
// kinds x trials matrix, derives seeds (harness.TrialSeed), labels trials
// and runs them on the internal/harness worker pool; results come back by
// index, so output is byte-identical for any worker count. Drivers take
// the harness.Config (workers, progress) as their first argument.
// A trial is one mars.Scenario. A MARS trial runs it as a mars.System:
// its mars.Config is the scenario's own plus the control-channel seed, and
// a driver's knob is an edit of a field that config already has (the
// channel's loss model, the retry budget, the codec, the analyzer).
// mars.NewSystem builds the stack and analyses every diagnosis, the same
// code the public API and the examples run; a trial only observes
// System.OnDiagnosis. The baselines and the hand-instrumented figure sims
// share newFatTree and newSubstrate (systems.go). The k-ary stream tier
// builds its partitioned fabric through NewShardedFabric (fabric.go); the
// arity sweep (scale.go) measures PathID tables only and simulates
// nothing.
package experiments

import (
	"fmt"

	"mars"
	"mars/internal/baselines/syndb"
	"mars/internal/dataplane"
	"mars/internal/faults"
	"mars/internal/netsim"
	"mars/internal/rca"
	"mars/internal/topology"
)

// SystemKind names the compared systems (Table 1, Fig. 9).
type SystemKind uint8

const (
	// SysMARS is this paper's system.
	SysMARS SystemKind = iota
	// SysSpiderMon is the NSDI'22 baseline.
	SysSpiderMon
	// SysIntSight is the CoNEXT'20 baseline.
	SysIntSight
	// SysSyNDB is the NSDI'21 baseline (expert-aided).
	SysSyNDB
)

// Systems lists the Table 1 column order.
func Systems() []SystemKind { return []SystemKind{SysMARS, SysSpiderMon, SysIntSight, SysSyNDB} }

func (s SystemKind) String() string {
	switch s {
	case SysMARS:
		return "MARS"
	case SysSpiderMon:
		return "SpiderMon"
	case SysIntSight:
		return "IntSight"
	case SysSyNDB:
		return "SyNDB"
	default:
		return fmt.Sprintf("SystemKind(%d)", uint8(s))
	}
}

// TrialResult is the outcome of one (system, fault) trial.
type TrialResult struct {
	System   SystemKind
	GT       faults.GroundTruth
	Rank     int // 1-based rank of the true cause; 0 = not found
	Detected bool
	// Overhead (Fig. 9): bytes of extra in-band headers on links, and
	// bytes exchanged with the control plane for diagnosis.
	TelemetryBytes int64
	DiagnosisBytes int64
	// TotalLinkBytes is all traffic serialized, for normalization.
	TotalLinkBytes int64
	// DiagLatency is the delay from fault start to the first completed
	// diagnosis (MARS trials; valid only when Detected).
	DiagLatency netsim.Time
	// Diagnoses / PartialDiagnoses count completed collections after the
	// fault started and how many finished with missing sinks.
	Diagnoses        int64
	PartialDiagnoses int64
	// Packets is the end-to-end packet count (for bytes/packet overhead
	// normalization); TelemetryPackets counts packets promoted to carry
	// telemetry.
	Packets          int64
	TelemetryPackets int64
	// FalseAlarms counts completed diagnoses before the fault started
	// (detection false positives; MARS trials only).
	FalseAlarms int64
}

// sumLinkBytes totals per-link byte counters (all traffic serialized).
func sumLinkBytes(perLink []int64) int64 {
	var n int64
	for _, b := range perLink {
		n += b
	}
	return n
}

// RunTrial executes one trial for one system and scores it against the
// injected ground truth. An out-of-range kind panics (the harness recovers
// trial panics into a *harness.TrialError).
func RunTrial(sys SystemKind, sc mars.Scenario) TrialResult {
	switch sys {
	case SysMARS:
		return marsTrial(sc, nil, mars.Locates)
	case SysSpiderMon:
		return runBaselineTrial(sys, sc, newSpiderMon)
	case SysIntSight:
		return runBaselineTrial(sys, sc, newIntSight)
	case SysSyNDB:
		return runBaselineTrial(sys, sc, newSyNDB)
	default:
		panic(fmt.Sprintf("experiments: unknown %v", sys))
	}
}

// recordGT strips the live injection handle from a ground truth about to
// enter a result record: it is lifecycle state that would make
// otherwise-identical results compare unequal across reruns and keep the
// finished simulator reachable.
func recordGT(gt faults.GroundTruth) faults.GroundTruth {
	gt.Handle = nil
	return gt
}

// marsCauseMatches is the stricter variant requiring the diagnosed cause
// class to match as well (used by the cause-accuracy ablation).
func marsCauseMatches(c rca.Culprit, gt faults.GroundTruth) bool {
	return c.Cause == trueCause(gt.Kind) && mars.Locates(c, gt)
}

// trueCause is the cause class that names a fault kind correctly: the
// cause-accuracy ablation and the gray grid's Cause@3 both score against
// it. Loss is loss, so the gray loss kinds are drops. The paper's
// analyzer cannot emit the three compound classes at all, so its cause
// accuracy on those gray rows is zero by construction, which is the
// point of that comparison.
func trueCause(k faults.Kind) rca.Cause {
	//mars:partial CtrlChanDegrade breaks the control channel, not the data plane: no culprit cause describes it and no trial scores one
	switch k {
	case faults.MicroBurst:
		return rca.CauseMicroBurst
	case faults.ECMPImbalance:
		return rca.CauseECMPImbalance
	case faults.ProcessRateDecrease:
		return rca.CauseProcessRate
	case faults.Delay:
		return rca.CauseDelay
	case faults.Drop, faults.SilentDrop, faults.LinkDown:
		return rca.CauseDrop
	case faults.LinkFlap:
		return rca.CauseLinkFlap
	case faults.SwitchReboot:
		return rca.CauseSwitchReboot
	case faults.UplinkDegrade:
		return rca.CauseLinkDegrade
	}
	panic(fmt.Sprintf("experiments: %v has no true cause", k))
}

// baselineMatches scores a baseline culprit: flow-identity match for
// micro-bursts (when the entry names a flow), switch containment otherwise.
func baselineMatches(switches []topology.NodeID, flowID dataplane.FlowID, hasFlow bool, gt faults.GroundTruth) bool {
	if gt.Kind == faults.MicroBurst {
		if hasFlow {
			return flowID == dataplane.FlowID{Src: gt.BurstSrcEdge, Sink: gt.BurstSinkEdge}
		}
		return false
	}
	for _, sw := range switches {
		if sw == gt.Switch {
			return true
		}
	}
	return false
}

// syndbQuery maps an injected fault to the expert query SyNDB is given.
func syndbQuery(k faults.Kind) syndb.Query {
	//mars:partial every loss-class fault kind shares the expert drop query through the default; only the four specialized queries need naming
	switch k {
	case faults.MicroBurst:
		return syndb.QueryMicroBurst
	case faults.ECMPImbalance:
		return syndb.QueryECMP
	case faults.ProcessRateDecrease:
		return syndb.QueryProcessRate
	case faults.Delay:
		return syndb.QueryDelay
	default:
		return syndb.QueryDrop
	}
}
