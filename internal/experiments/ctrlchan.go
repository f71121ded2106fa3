package experiments

import (
	"fmt"
	"strings"

	"mars/internal/faults"
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

// RunCtrlChan sweeps control-channel loss with the default engine options.
func RunCtrlChan(trials int, baseSeed int64) *CtrlChanResult {
	return RunCtrlChanWith(EngineOptions{}, trials, baseSeed)
}

// RunCtrlChanWith sweeps control-channel loss over the Table 1 fault suite
// on the harness. Seeds derive exactly as in RunTable1, so every sweep
// point faces the same fault sequence; per-row aggregation walks results
// in the historical (loss, mode, fault, trial) nesting order, keeping the
// whole experiment deterministic under a fixed base seed and any worker
// count.
func RunCtrlChanWith(opts EngineOptions, trials int, baseSeed int64) *CtrlChanResult {
	res := &CtrlChanResult{Trials: trials}
	var (
		tcs   []TrialConfig
		rowOf []int
		ts    []harness.Trial
	)
	for _, loss := range CtrlChanLosses {
		for _, retry := range []bool{true, false} {
			res.Rows = append(res.Rows, CtrlChanRow{Loss: loss, Retry: retry})
			row := len(res.Rows) - 1
			for _, kind := range faults.Kinds() {
				for t := 0; t < trials; t++ {
					seed := harness.TrialSeed(baseSeed, int(kind), t)
					tc := DefaultTrialConfig(seed, kind)
					tc.CtrlLossy = true
					tc.CtrlLoss = loss
					tc.CtrlNoRetry = !retry
					tcs = append(tcs, tc)
					rowOf = append(rowOf, row)
					mode := "retry"
					if !retry {
						mode = "no-retry"
					}
					ts = append(ts, harness.Trial{
						Index: len(ts), Seed: seed,
						Label: fmt.Sprintf("ctrlchan/%.0f%%/%s/%s/t%d", 100*loss, mode, kind, t),
					})
				}
			}
		}
	}
	results := mustRun(opts, ts, func(tr harness.Trial) TrialResult {
		return opts.runTrial(SysMARS, tcs[tr.Index])
	})
	latSum := make([]netsim.Time, len(res.Rows))
	for i, r := range results {
		row := &res.Rows[rowOf[i]]
		row.Loc.Add(r.Rank)
		row.Diagnoses += r.Diagnoses
		row.Partial += r.PartialDiagnoses
		if r.DiagDetected {
			row.Detected++
			latSum[rowOf[i]] += r.DiagLatency
		}
	}
	for i := range res.Rows {
		if res.Rows[i].Detected > 0 {
			res.Rows[i].MeanDiagLatency = latSum[i] / netsim.Time(res.Rows[i].Detected)
		}
	}
	return res
}

// Row returns the sweep point for (loss, retry), or nil.
func (r *CtrlChanResult) Row(loss float64, retry bool) *CtrlChanRow {
	for i := range r.Rows {
		if r.Rows[i].Loss == loss && r.Rows[i].Retry == retry {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render formats the degradation curves.
func (r *CtrlChanResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ctrl-chan sweep: localization vs control-channel loss (%d trials per fault)\n", r.Trials)
	fmt.Fprintf(&b, "%-6s %-9s %6s %6s %8s %10s %10s %9s\n",
		"loss", "mode", "R@1", "R@3", "Exam", "diag(ms)", "diagnoses", "partial")
	for _, row := range r.Rows {
		mode := "retry"
		if !row.Retry {
			mode = "no-retry"
		}
		fmt.Fprintf(&b, "%-6s %-9s %6.2f %6.2f %8.2f %10.1f %10d %9d\n",
			fmt.Sprintf("%.0f%%", 100*row.Loss), mode,
			row.Loc.RecallAt(1), row.Loc.RecallAt(3), row.Loc.MeanExamScore(),
			row.MeanDiagLatency.Millis(), row.Diagnoses, row.Partial)
	}
	return b.String()
}
