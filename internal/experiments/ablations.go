package experiments

import (
	"fmt"
	"strings"

	"mars/internal/faults"
	"mars/internal/fsm"
	"mars/internal/harness"
	"mars/internal/metrics"
	"mars/internal/rca"
	"mars/internal/sbfl"
)

// AblationResult is a generic named-variant localization comparison.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// AblationRow is one variant's aggregate localization quality.
type AblationRow struct {
	Name string
	Loc  metrics.Localization
}

// Render formats the comparison.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "%-18s %6s %6s %6s %6s %8s\n", "variant", "R@1", "R@2", "R@3", "R@5", "Exam")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %6.2f %6.2f %6.2f %6.2f %8.2f\n", row.Name,
			row.Loc.RecallAt(1), row.Loc.RecallAt(2), row.Loc.RecallAt(3), row.Loc.RecallAt(5), row.Loc.MeanExamScore())
	}
	return b.String()
}

// runMARSVariant runs MARS trials across all fault kinds on the harness
// under one variant — an RCA config edit (nil: none) and a matching rule —
// aggregating ranks in the historical (fault, trial) order. Variant trials
// never touch the shared result cache: the variant knobs live outside
// TrialConfig, so identical keys could mean different computations.
func runMARSVariant(opts EngineOptions, trials int, baseSeed int64, label string, mutateRCA func(*rca.Config), match func(rca.Culprit, faults.GroundTruth) bool) metrics.Localization {
	var (
		tcs []TrialConfig
		ts  []harness.Trial
	)
	for _, kind := range faults.Kinds() {
		for i := 0; i < trials; i++ {
			seed := harness.TrialSeed(baseSeed, int(kind), i)
			tc := DefaultTrialConfig(seed, kind)
			tcs = append(tcs, tc)
			ts = append(ts, harness.Trial{
				Index: len(ts), Seed: seed,
				Label: fmt.Sprintf("ablation/%s/%s/t%d", label, kind, i),
			})
		}
	}
	results := mustRun(opts, ts, func(tr harness.Trial) TrialResult {
		return marsTrial(tcs[tr.Index], mutateRCA, match)
	})
	var loc metrics.Localization
	for _, r := range results {
		loc.Add(r.Rank)
	}
	return loc
}

// RunAblationSBFL compares SBFL scoring formulas (relative risk is the
// paper's choice).
func RunAblationSBFL(trials int, baseSeed int64) *AblationResult {
	return RunAblationSBFLWith(EngineOptions{}, trials, baseSeed)
}

// RunAblationSBFLWith is RunAblationSBFL on configured engine options.
func RunAblationSBFLWith(opts EngineOptions, trials int, baseSeed int64) *AblationResult {
	out := &AblationResult{Title: "Ablation: SBFL formula"}
	for _, name := range []string{"relative-risk", "ochiai", "tarantula", "jaccard", "dstar"} {
		formula := sbfl.Formulas()[name]
		loc := runMARSVariant(opts, trials, baseSeed, "sbfl-"+name,
			func(c *rca.Config) { c.Formula = formula }, marsMatches)
		out.Rows = append(out.Rows, AblationRow{Name: name, Loc: loc})
	}
	return out
}

// RunAblationFSMMaxLen compares culprit pattern length caps (MARS uses 2:
// switches and links).
func RunAblationFSMMaxLen(trials int, baseSeed int64) *AblationResult {
	return RunAblationFSMMaxLenWith(EngineOptions{}, trials, baseSeed)
}

// RunAblationFSMMaxLenWith is RunAblationFSMMaxLen on configured options.
func RunAblationFSMMaxLenWith(opts EngineOptions, trials int, baseSeed int64) *AblationResult {
	out := &AblationResult{Title: "Ablation: FSM max pattern length"}
	for _, maxLen := range []int{1, 2, 3} {
		maxLen := maxLen
		loc := runMARSVariant(opts, trials, baseSeed, fmt.Sprintf("fsmlen-%d", maxLen),
			func(c *rca.Config) { c.MaxPatternLen = maxLen }, marsMatches)
		out.Rows = append(out.Rows, AblationRow{Name: fmt.Sprintf("maxlen=%d", maxLen), Loc: loc})
	}
	return out
}

// RunAblationMiner confirms miner choice does not change results (they
// return identical pattern sets), only runtime.
func RunAblationMiner(trials int, baseSeed int64) *AblationResult {
	return RunAblationMinerWith(EngineOptions{}, trials, baseSeed)
}

// RunAblationMinerWith is RunAblationMiner on configured engine options.
func RunAblationMinerWith(opts EngineOptions, trials int, baseSeed int64) *AblationResult {
	out := &AblationResult{Title: "Ablation: FSM algorithm (results must match)"}
	for _, name := range []string{"PrefixSpan", "GSP", "CM-SPADE"} {
		m := fsm.ByName(name)
		loc := runMARSVariant(opts, trials, baseSeed, "miner-"+name,
			func(c *rca.Config) { c.Miner = m }, marsMatches)
		out.Rows = append(out.Rows, AblationRow{Name: name, Loc: loc})
	}
	return out
}

// RunAblationCauseAccuracy scores MARS with the strict cause-matching rule
// (the diagnosed cause class must equal the injected class, in addition to
// the location).
func RunAblationCauseAccuracy(trials int, baseSeed int64) *AblationResult {
	return RunAblationCauseAccuracyWith(EngineOptions{}, trials, baseSeed)
}

// RunAblationCauseAccuracyWith is RunAblationCauseAccuracy on configured
// engine options.
func RunAblationCauseAccuracyWith(opts EngineOptions, trials int, baseSeed int64) *AblationResult {
	out := &AblationResult{Title: "Ablation: location-only vs location+cause matching"}
	for _, v := range []struct {
		name  string
		match func(rca.Culprit, faults.GroundTruth) bool
	}{{"location", marsMatches}, {"location+cause", marsCauseMatches}} {
		loc := runMARSVariant(opts, trials, baseSeed, v.name, nil, v.match)
		out.Rows = append(out.Rows, AblationRow{Name: v.name, Loc: loc})
	}
	return out
}
