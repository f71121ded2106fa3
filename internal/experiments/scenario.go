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
// MARS trials are mars.System runs: the trial config maps onto mars.Config
// and the deployment is built by mars.NewSystem, the same code the public
// API and the examples use. The three baselines share newSubstrate
// (systems.go). The k-ary stream tier builds its partitioned fabric through
// NewShardedFabric (fabric.go); the arity sweep (scale.go) measures PathID
// tables only and simulates nothing.
package experiments

import (
	"fmt"

	"mars/internal/baselines/syndb"
	"mars/internal/dataplane"
	"mars/internal/faults"
	"mars/internal/netsim"
	"mars/internal/rca"
	"mars/internal/topology"
	"mars/internal/workload"
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

// TrialConfig parameterizes one fault-localization trial.
type TrialConfig struct {
	Seed  int64
	Fault faults.Kind
	K     int
	// Background traffic shape; zero-value fields take the defaults below.
	NumFlows int
	RatePPS  float64
	// Timeline.
	FaultStart netsim.Time
	FaultDur   netsim.Time
	Total      netsim.Time
	// SimCfg overrides the physical parameters (zero = scaled defaults).
	SimCfg *netsim.Config

	// CtrlLossy runs MARS over the realistic control channel model
	// (1 ms ± jitter latency, duplication, reordering) instead of the
	// perfect synchronous one, with CtrlLoss symmetric message loss.
	// Only the MARS trial uses these: the baselines have no equivalent
	// explicit control channel to degrade.
	CtrlLossy bool
	CtrlLoss  float64
	// CtrlNoRetry zeroes the controller's retry budget (the ablation the
	// ctrlchan experiment compares against).
	CtrlNoRetry bool

	// Codec names the telemetry encoding for MARS trials (internal/
	// telemetry); "" is "mars11". Only the overhead experiment sets it.
	Codec string
}

// DefaultTrialConfig sizes a trial so the five fault signatures are
// observable at software-switch scale: links fit ~2500 pps of mixed
// traffic, background load sits near 50% on the fat-tree uplinks, and
// faults run for 1.5 s after a 2 s warmup.
func DefaultTrialConfig(seed int64, kind faults.Kind) TrialConfig {
	return TrialConfig{
		Seed:       seed,
		Fault:      kind,
		K:          4,
		NumFlows:   96,
		RatePPS:    220,
		FaultStart: 2 * netsim.Second,
		FaultDur:   1500 * netsim.Millisecond,
		Total:      4 * netsim.Second,
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
	// diagnosis (MARS trials; valid only when DiagDetected).
	DiagLatency  netsim.Time
	DiagDetected bool
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

// installWorkload starts the background mesh and returns the flows.
func installWorkload(tc TrialConfig, sim *netsim.Simulator, ft *topology.FatTree) []*workload.Flow {
	return workload.RandomBackground(sim, ft, workload.BackgroundConfig{
		NumFlows:      tc.NumFlows,
		RatePPS:       tc.RatePPS,
		RateJitter:    0.2,
		Gaps:          workload.GapExponential,
		Start:         0,
		Stop:          tc.Total,
		CrossPodBias:  1.0,
		RoundRobinSrc: true,
		RoundRobinDst: true,
	}, 1)
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
func RunTrial(sys SystemKind, tc TrialConfig) TrialResult {
	switch sys {
	case SysMARS:
		return marsTrial(tc, nil, marsMatches)
	case SysSpiderMon:
		return runBaselineTrial(sys, tc, newSpiderMon)
	case SysIntSight:
		return runBaselineTrial(sys, tc, newIntSight)
	case SysSyNDB:
		return runBaselineTrial(sys, tc, newSyNDB)
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

// marsMatches decides whether a MARS culprit locates the injected fault.
// Table 1’s R@k measures whether "the root cause can be located within the
// top k culprits": a micro-burst is located by naming the offending flow;
// every other fault is located by naming the faulty switch (the same
// location-based rule the baselines are scored with — they emit no cause
// taxonomy at all). MARS’s cause labels remain part of its output and are
// evaluated separately by the cause-accuracy ablation.
func marsMatches(c rca.Culprit, gt faults.GroundTruth) bool {
	if gt.Kind == faults.MicroBurst {
		return c.Level == rca.LevelFlow &&
			c.Flow == dataplane.FlowID{Src: gt.BurstSrcEdge, Sink: gt.BurstSinkEdge}
	}
	if gt.Kind == faults.ECMPImbalance && c.Cause == rca.CauseECMPImbalance {
		return c.ContainsSwitch(gt.Switch)
	}
	if c.Level == rca.LevelFlow {
		return false
	}
	return c.ContainsSwitch(gt.Switch)
}

// marsCauseMatches is the stricter variant requiring the diagnosed cause
// class to match as well (used by the cause-accuracy ablation).
func marsCauseMatches(c rca.Culprit, gt faults.GroundTruth) bool {
	want := map[faults.Kind]rca.Cause{
		faults.MicroBurst:          rca.CauseMicroBurst,
		faults.ECMPImbalance:       rca.CauseECMPImbalance,
		faults.ProcessRateDecrease: rca.CauseProcessRate,
		faults.Delay:               rca.CauseDelay,
		faults.Drop:                rca.CauseDrop,
	}[gt.Kind]
	return c.Cause == want && marsMatches(c, gt)
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
