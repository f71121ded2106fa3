package experiments

import (
	"fmt"
	"strings"

	"mars/internal/faults"
	"mars/internal/harness"
	"mars/internal/metrics"
)

// Table1Cell aggregates one (fault, system) cell.
type Table1Cell struct {
	Loc metrics.Localization
}

// Table1Result holds the full Table 1 matrix plus the Overall row.
type Table1Result struct {
	Trials int
	// Cells[fault][system].
	Cells map[faults.Kind]map[SystemKind]*Table1Cell
}

// systemRows is one sweep row per compared system, each running the
// default trial of the fault suite (Table 1 and Fig. 9 share it).
func systemRows() []sweepRow[TrialResult] {
	var rows []sweepRow[TrialResult]
	for _, sys := range Systems() {
		rows = append(rows, faultRow(sys.String(), func(tc TrialConfig) TrialResult {
			return RunTrial(sys, tc)
		}))
	}
	return rows
}

// RunTable1With runs `trials` trials per fault kind per system. Every
// system faces the same seeded fault sequence; each (fault, system) cell
// aggregates its ranks in trial order.
func RunTable1With(cfg harness.Config, trials int, baseSeed int64) *Table1Result {
	kinds := faults.Kinds()
	results := sweep(cfg, "table1", systemRows(), faultSuite(), trials, baseSeed)

	res := &Table1Result{
		Trials: trials,
		Cells:  make(map[faults.Kind]map[SystemKind]*Table1Cell),
	}
	for _, kind := range kinds {
		res.Cells[kind] = make(map[SystemKind]*Table1Cell)
		for _, sys := range Systems() {
			res.Cells[kind][sys] = &Table1Cell{}
		}
	}
	for r, sys := range Systems() {
		for i, tr := range results[r] {
			res.Cells[kinds[i/trials]][sys].Loc.Add(tr.Rank)
		}
	}
	return res
}

// Overall merges all fault kinds for one system.
func (r *Table1Result) Overall(sys SystemKind) *metrics.Localization {
	var all metrics.Localization
	for _, kind := range faults.Kinds() {
		all.Merge(&r.Cells[kind][sys].Loc)
	}
	return &all
}

// Render formats the matrix like the paper's Table 1.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Recall@k and Exam Score (%d trials per fault)\n", r.Trials)
	fmt.Fprintf(&b, "%-14s %-10s %6s %6s %6s %6s %8s\n", "Fault", "System", "R@1", "R@2", "R@3", "R@5", "Exam")
	row := func(name string, sys SystemKind, loc *metrics.Localization) {
		fmt.Fprintf(&b, "%-14s %-10s %6.2f %6.2f %6.2f %6.2f %8.2f\n",
			name, sys, loc.RecallAt(1), loc.RecallAt(2), loc.RecallAt(3), loc.RecallAt(5), loc.MeanExamScore())
	}
	for _, kind := range faults.Kinds() {
		for _, sys := range Systems() {
			row(kind.String(), sys, &r.Cells[kind][sys].Loc)
		}
	}
	for _, sys := range Systems() {
		row("overall", sys, r.Overall(sys))
	}
	return b.String()
}
