package experiments

import (
	"fmt"
	"strings"

	"mars"
	"mars/internal/ctrlchan"
	"mars/internal/harness"
	"mars/internal/metrics"
	"mars/internal/netsim"
)

// The ctrlchan experiment (this repository's addition, beyond the paper's
// idealized control plane): MARS runs the Table 1 fault suite while its
// own controller↔switch channel drops messages, sweeping the loss rate
// from 0% to 30%. Two controller modes are compared at every point —
// the hardened one (timeouts, capped exponential backoff, retry budget,
// acks, degraded-mode partial diagnoses) and a no-retry ablation that
// sends every request exactly once. The curves show that the reliability
// machinery holds localization accuracy where the naive channel collapses.

// CtrlChanLosses is the swept symmetric loss probability.
var CtrlChanLosses = []float64{0, 0.05, 0.10, 0.20, 0.30}

// CtrlChanRow aggregates one (loss, mode) sweep point over the fault
// suite.
type CtrlChanRow struct {
	Loss  float64
	Retry bool
	Loc   metrics.Localization
	// MeanDiagLatency is the mean fault-start → first-diagnosis delay
	// over the trials that diagnosed at all.
	MeanDiagLatency netsim.Time
	// Detected counts trials with at least one post-fault diagnosis.
	Detected int
	// Diagnoses / Partial count completed collections and how many of
	// them finished with missing sinks.
	Diagnoses, Partial int64
}

// CtrlChanResult is the full sweep.
type CtrlChanResult struct {
	Trials int
	Rows   []CtrlChanRow
}

// RunCtrlChanWith sweeps control-channel loss over the Table 1 fault
// suite, both controller modes at every loss point. Every sweep point
// faces Table 1's fault sequence; each row aggregates in (fault, trial)
// order.
func RunCtrlChanWith(cfg harness.Config, trials int, baseSeed int64) *CtrlChanResult {
	res := &CtrlChanResult{Trials: trials}
	var rows []sweepRow[TrialResult]
	for _, loss := range CtrlChanLosses {
		for _, retry := range []bool{true, false} {
			res.Rows = append(res.Rows, CtrlChanRow{Loss: loss, Retry: retry})
			label := fmt.Sprintf("%.0f%%/%s", 100*loss, ctrlChanMode(retry))
			rows = append(rows, faultRow(label, func(sc mars.Scenario) TrialResult {
				return marsTrial(sc, lossyChannel(loss, retry), mars.Locates)
			}))
		}
	}
	results := sweep(cfg, "ctrlchan", rows, faultSuite(), trials, baseSeed)
	for i := range res.Rows {
		row := &res.Rows[i]
		var latSum netsim.Time
		for _, r := range results[i] {
			row.Loc.Add(r.Rank)
			row.Diagnoses += r.Diagnoses
			row.Partial += r.PartialDiagnoses
			if r.Detected {
				row.Detected++
				latSum += r.DiagLatency
			}
		}
		if row.Detected > 0 {
			row.MeanDiagLatency = latSum / netsim.Time(row.Detected)
		}
	}
	return res
}

// lossyChannel is a sweep point's edit: the realistic control channel
// (1 ms ± jitter latency, duplication, reordering) at symmetric message
// loss, on the trial's channel seed; without retry, the controller's
// retry budget is zero, so every request is sent exactly once.
func lossyChannel(loss float64, retry bool) func(*mars.Config) {
	return func(cfg *mars.Config) {
		cfg.CtrlChan = ctrlchan.Lossy(loss, cfg.CtrlChan.Seed)
		if !retry {
			cfg.Controller.MaxRetries = 0
		}
	}
}

// ctrlChanMode names a controller mode in labels and the rendered table.
func ctrlChanMode(retry bool) string {
	if retry {
		return "retry"
	}
	return "no-retry"
}

// Render formats the degradation curves.
func (r *CtrlChanResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ctrl-chan sweep: localization vs control-channel loss (%d trials per fault)\n", r.Trials)
	fmt.Fprintf(&b, "%-6s %-9s %6s %6s %8s %10s %10s %9s\n",
		"loss", "mode", "R@1", "R@3", "Exam", "diag(ms)", "diagnoses", "partial")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s %-9s %6.2f %6.2f %8.2f %10.1f %10d %9d\n",
			fmt.Sprintf("%.0f%%", 100*row.Loss), ctrlChanMode(row.Retry),
			row.Loc.RecallAt(1), row.Loc.RecallAt(3), row.Loc.MeanExamScore(),
			row.MeanDiagLatency.Millis(), row.Diagnoses, row.Partial)
	}
	return b.String()
}
