package rca

import (
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

// The paper notes that "the signatures can be extended if more root causes
// are considered" (§5.6). This file is that extension point: operators
// register custom signatures that are evaluated per culprit pattern before
// the five built-in ones, with access to the same evidence the built-ins
// use.

// CauseExtensionBase is the first Cause value available to extensions;
// values below it are reserved for the built-in causes.
const CauseExtensionBase Cause = 100

// PatternEvidence is the evidence available to a signature for one
// candidate pattern: the pattern itself, per-flow diagnosis summaries of
// the flows traversing it, and dataset-level baselines.
type PatternEvidence struct {
	// Pattern is the candidate switch or link.
	Pattern []topology.NodeID
	// Score is the pattern's SBFL suspiciousness.
	Score float64
	// Flows summarizes each traversing flow.
	Flows []FlowEvidence
	// BaselineQueueDepth is the median total queue depth among records
	// classified normal.
	BaselineQueueDepth float64
	// GlobalMedianRate is the median per-epoch packet count across flows.
	GlobalMedianRate float64
}

// FlowEvidence summarizes one flow's diagnosis data for signature writers.
type FlowEvidence struct {
	Flow dataplane.FlowID
	// PacketsThroughPattern is the flow's estimated packet count crossing
	// the pattern.
	PacketsThroughPattern float64
	// PeakEpochRate and BaselineEpochRate are per-epoch packet counts.
	PeakEpochRate, BaselineEpochRate float64
	// AbnormalQueueMedian is the median accumulated queue depth among the
	// flow's over-threshold records (0 if none).
	AbnormalQueueMedian float64
	// AbnormalRecords counts the flow's over-threshold records.
	AbnormalRecords int
}

// SignatureMatch is a custom signature's verdict for one pattern.
type SignatureMatch struct {
	Cause Cause
	Level Level
	// Location overrides the blamed switches (nil keeps the pattern).
	Location []topology.NodeID
	// Flow attributes the cause to a flow (flow-level causes only).
	Flow dataplane.FlowID
	// Weight scales the pattern score for this culprit (0 -> 1).
	Weight float64
}

// Signature inspects a pattern's evidence. Returning ok=false passes the
// pattern on to the next signature (custom ones first, then built-ins).
type Signature func(ev PatternEvidence) (SignatureMatch, bool)

// RegisterSignature appends a custom cause signature. Signatures run in
// registration order before the built-in ones.
func (a *Analyzer) RegisterSignature(name string, s Signature) {
	a.extensions = append(a.extensions, namedSignature{name: name, fn: s})
}

type namedSignature struct {
	name string
	fn   Signature
}

// runExtensions evaluates custom signatures for one pattern and returns
// the culprits they produce (empty if none claimed it).
func (a *Analyzer) runExtensions(ix *index, sp scoredPattern, through []flowPkts, baseQ float64) []Culprit {
	if len(a.extensions) == 0 {
		return nil
	}
	ev := PatternEvidence{
		Pattern:            sp.sub,
		Score:              sp.score,
		BaselineQueueDepth: baseQ,
		GlobalMedianRate:   ix.globalMed,
	}
	for _, fp := range through {
		fs := &ix.stats[fp.flow]
		peak, base, _ := fs.peakAndBaseline()
		ev.Flows = append(ev.Flows, FlowEvidence{
			Flow:                  ix.flowIDs[fp.flow],
			PacketsThroughPattern: fp.pkts,
			PeakEpochRate:         float64(peak),
			BaselineEpochRate:     base,
			AbnormalQueueMedian:   fs.abnormalQueueMedian(),
			AbnormalRecords:       len(fs.abnormalQueueDepths),
		})
	}
	var out []Culprit
	for _, ns := range a.extensions {
		m, ok := ns.fn(ev)
		if !ok {
			continue
		}
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		loc := m.Location
		if loc == nil {
			loc = append([]topology.NodeID{}, sp.sub...)
		}
		out = append(out, Culprit{
			Cause:    m.Cause,
			Level:    m.Level,
			Location: loc,
			Flow:     m.Flow,
			Score:    sp.score * w,
		})
	}
	return out
}

// Thresholds is also satisfiable by a plain function.
type ThresholdFunc func(flow dataplane.FlowID) netsim.Time

// ThresholdOf implements Thresholds.
func (f ThresholdFunc) ThresholdOf(flow dataplane.FlowID) netsim.Time { return f(flow) }

var _ Thresholds = ThresholdFunc(nil)
