package experiments

import (
	"fmt"
	"strings"

	"mars"
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

// marsVariant is one row of an ablation: a config edit (nil: none) and a
// matching rule.
type marsVariant struct {
	name  string
	edit  func(*mars.Config)
	match func(rca.Culprit, faults.GroundTruth) bool
}

// runMARSVariants runs the Table 1 fault suite under every variant, on
// Table 1's seeds, aggregating each variant's ranks in (fault, trial)
// order.
func runMARSVariants(cfg harness.Config, title string, variants []marsVariant, trials int, baseSeed int64) *AblationResult {
	var rows []sweepRow[TrialResult]
	for _, v := range variants {
		rows = append(rows, faultRow(v.name, func(sc mars.Scenario) TrialResult {
			return marsTrial(sc, v.edit, v.match)
		}))
	}
	results := sweep(cfg, "ablation", rows, faultSuite(), trials, baseSeed)
	out := &AblationResult{Title: title}
	for i, v := range variants {
		row := AblationRow{Name: v.name}
		for _, r := range results[i] {
			row.Loc.Add(r.Rank)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// RunAblationSBFLWith compares SBFL scoring formulas (relative risk is the
// paper's choice).
func RunAblationSBFLWith(cfg harness.Config, trials int, baseSeed int64) *AblationResult {
	var variants []marsVariant
	for _, name := range []string{"relative-risk", "ochiai", "tarantula", "jaccard", "dstar"} {
		formula := sbfl.Formulas()[name]
		variants = append(variants, marsVariant{name, func(c *mars.Config) { c.RCA.Formula = formula }, mars.Locates})
	}
	return runMARSVariants(cfg, "Ablation: SBFL formula", variants, trials, baseSeed)
}

// RunAblationFSMMaxLenWith compares culprit pattern length caps (MARS uses
// 2: switches and links).
func RunAblationFSMMaxLenWith(cfg harness.Config, trials int, baseSeed int64) *AblationResult {
	var variants []marsVariant
	for _, maxLen := range []int{1, 2, 3} {
		variants = append(variants, marsVariant{fmt.Sprintf("maxlen=%d", maxLen),
			func(c *mars.Config) { c.RCA.MaxPatternLen = maxLen }, mars.Locates})
	}
	return runMARSVariants(cfg, "Ablation: FSM max pattern length", variants, trials, baseSeed)
}

// RunAblationMinerWith confirms miner choice does not change results (they
// return identical pattern sets), only runtime.
func RunAblationMinerWith(cfg harness.Config, trials int, baseSeed int64) *AblationResult {
	var variants []marsVariant
	for _, name := range []string{"PrefixSpan", "GSP", "CM-SPADE"} {
		m := fsm.ByName(name)
		variants = append(variants, marsVariant{name, func(c *mars.Config) { c.RCA.Miner = m }, mars.Locates})
	}
	return runMARSVariants(cfg, "Ablation: FSM algorithm (results must match)", variants, trials, baseSeed)
}

// RunAblationCauseAccuracyWith scores MARS with the strict cause-matching
// rule (the diagnosed cause class must equal the injected class, in
// addition to the location) next to the location-only rule.
func RunAblationCauseAccuracyWith(cfg harness.Config, trials int, baseSeed int64) *AblationResult {
	return runMARSVariants(cfg, "Ablation: location-only vs location+cause matching", []marsVariant{
		{"location", nil, mars.Locates},
		{"location+cause", nil, marsCauseMatches},
	}, trials, baseSeed)
}
