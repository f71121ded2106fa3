package experiments

import (
	"fmt"
	"strings"

	"mars/internal/harness"
	"mars/internal/metrics"
)

// The overhead experiment (this repository's addition, extending the
// paper's Fig. 2 / §4.2 low-cost argument): MARS runs the Table 1 fault
// suite under each telemetry codec, measuring the cost–accuracy frontier
// the fixed 11-byte header occupies. Cost is
// in-band bytes per packet and link-utilization inflation; accuracy is
// detection F1 (post-fault diagnosis vs. pre-fault false alarms) and the
// paper's R@k / Exam Score. The perhop codec (classic INT) bounds the
// frontier from above on cost with identical accuracy; sampled bounds it
// from below; pintlike sits between, paying 5 extra bytes for per-hop
// visibility mars11 gives up.

// OverheadCodecs is the swept codec order (cheap to expensive in
// bytes/packet, with the paper's default first).
var OverheadCodecs = []string{"mars11", "sampled", "pintlike", "perhop"}

// OverheadRow aggregates one codec over the fault suite.
type OverheadRow struct {
	Codec string
	Loc   metrics.Localization
	// Det is per-trial detection: a trial scores TP when a diagnosis
	// completed after fault start, FN when none did, and one FP when any
	// diagnosis completed before the fault (a false alarm on the healthy
	// network).
	Det metrics.Confusion
	// Byte totals over all trials.
	TelemetryBytes int64
	TotalLinkBytes int64
	DiagnosisBytes int64
	// Packets / TelemetryPackets total end-to-end and promoted packets.
	Packets          int64
	TelemetryPackets int64
	// Detected counts trials with at least one post-fault diagnosis.
	Detected int
}

// BytesPerPacket is the mean in-band telemetry overhead per end-to-end
// packet (PathID field + codec headers).
func (r *OverheadRow) BytesPerPacket() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.TelemetryBytes) / float64(r.Packets)
}

// UtilizationInflation is the relative link-byte increase telemetry
// causes: telemetry bytes over non-telemetry bytes.
func (r *OverheadRow) UtilizationInflation() float64 {
	base := r.TotalLinkBytes - r.TelemetryBytes
	if base <= 0 {
		return 0
	}
	return float64(r.TelemetryBytes) / float64(base)
}

// OverheadResult is the full frontier.
type OverheadResult struct {
	Trials int
	Rows   []OverheadRow
}

// RunOverheadWith runs the Table 1 fault suite under every codec. Every
// codec faces Table 1's fault sequence, so the mars11 row reproduces
// Table 1's MARS accuracy; each row aggregates in (fault, trial) order.
func RunOverheadWith(cfg harness.Config, trials int, baseSeed int64) *OverheadResult {
	res := &OverheadResult{Trials: trials}
	var rows []sweepRow[TrialResult]
	for _, codec := range OverheadCodecs {
		res.Rows = append(res.Rows, OverheadRow{Codec: codec})
		rows = append(rows, faultRow(codec, func(tc TrialConfig) TrialResult {
			tc.Codec = codec
			return RunTrial(SysMARS, tc)
		}))
	}
	results := sweep(cfg, "overhead", rows, faultSuite(), trials, baseSeed)
	for i := range res.Rows {
		row := &res.Rows[i]
		for _, r := range results[i] {
			row.Loc.Add(r.Rank)
			row.Det.Add(r.DiagDetected, true)
			if r.FalseAlarms > 0 {
				row.Det.Add(true, false)
			}
			row.TelemetryBytes += r.TelemetryBytes
			row.TotalLinkBytes += r.TotalLinkBytes
			row.DiagnosisBytes += r.DiagnosisBytes
			row.Packets += r.Packets
			row.TelemetryPackets += r.TelemetryPackets
			if r.DiagDetected {
				row.Detected++
			}
		}
	}
	return res
}

// Row returns the sweep row for a codec, or nil.
func (r *OverheadResult) Row(codec string) *OverheadRow {
	for i := range r.Rows {
		if r.Rows[i].Codec == codec {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render formats the cost–accuracy frontier.
func (r *OverheadResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overhead frontier: telemetry codec cost vs accuracy (%d trials per fault)\n", r.Trials)
	fmt.Fprintf(&b, "%-10s %8s %8s %7s %7s %7s %6s %6s %8s\n",
		"codec", "B/pkt", "util+%", "det-P", "det-R", "det-F1", "R@1", "R@3", "Exam")
	for i := range r.Rows {
		row := &r.Rows[i]
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %7.2f %7.2f %7.2f %6.2f %6.2f %8.2f\n",
			row.Codec, row.BytesPerPacket(), 100*row.UtilizationInflation(),
			row.Det.Precision(), row.Det.Recall(), row.Det.F1(),
			row.Loc.RecallAt(1), row.Loc.RecallAt(3), row.Loc.MeanExamScore())
	}
	return b.String()
}
