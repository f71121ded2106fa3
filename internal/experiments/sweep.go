package experiments

import (
	"fmt"

	"mars"
	"mars/internal/faults"
	"mars/internal/harness"
)

// The paper's evaluation is one shape repeated: a seeded matrix of rows
// (systems, codecs, loss points, analyzer variants) x kinds (fault
// scenarios) x trials. sweep is the only code that enumerates that matrix:
// it derives every trial seed, builds the harness.Trial list, runs it on
// the harness, and hands the results back grouped per row. A driver is a
// row list plus a fold over results[row]. Anything that must see every
// trial with its identity — a per-trial miss record, say — attaches here.

// sweepKind is one column group of a trial matrix: the kind index
// harness.TrialSeed strides by, and the tag trial labels carry.
type sweepKind struct {
	seedIndex int
	label     string
}

// sweepRow is one row of a trial matrix: its label and the pure function
// that runs one of its trials. kind is the position in the sweep's kind
// list; all randomness must flow from seed.
type sweepRow[T any] struct {
	label string
	run   func(kind int, seed int64) T
}

// faultSuite is the Table 1 fault suite as sweep kinds: kind k of a sweep
// over it is faults.Kinds()[k], seeded by the fault kind's own value so
// every sweep over the suite faces the same fault sequence.
func faultSuite() []sweepKind {
	var out []sweepKind
	for _, k := range faults.Kinds() {
		out = append(out, sweepKind{int(k), k.String()})
	}
	return out
}

// faultRow is a row over the fault suite: trial (k, t) runs the default
// scenario of faults.Kinds()[k] on the trial's seed.
func faultRow(label string, run func(sc mars.Scenario) TrialResult) sweepRow[TrialResult] {
	kinds := faults.Kinds()
	return sweepRow[TrialResult]{label, func(k int, seed int64) TrialResult {
		return run(mars.DefaultScenario(seed, kinds[k]))
	}}
}

// CheckTrials rejects per-kind trial counts whose seeds would alias:
// harness.TrialSeed strides kinds by harness.KindStride, so trial
// KindStride of kind k is trial 0 of kind k+1. Entry points that take a
// trial count from outside the program check it here; sweep enforces it.
func CheckTrials(trials int) error {
	if trials >= harness.KindStride {
		return fmt.Errorf("experiments: %d trials per kind: the limit is %d (trial seeds stride kinds by %d)",
			trials, harness.KindStride-1, harness.KindStride)
	}
	return nil
}

// sweep runs every (row, kind, trial) of the matrix on the harness and
// returns results[row] in (kind, trial) order: results[r][k*trials+t].
// Trial (k, t) has seed harness.TrialSeed(baseSeed, kinds[k].seedIndex, t)
// in every row, so rows are compared on identical scenarios, and results
// land by index, so output is byte-identical for any worker count.
//
// Drivers have no error path to their callers and a matrix with a dead
// trial would fold into meaningless numbers, so a trial panic is
// re-raised as the harness's joined *harness.TrialError chain, which
// names exactly which trials died and why.
func sweep[T any](cfg harness.Config, name string, rows []sweepRow[T], kinds []sweepKind, trials int, baseSeed int64) [][]T {
	if err := CheckTrials(trials); err != nil {
		panic(err)
	}
	perRow := len(kinds) * trials
	ts := make([]harness.Trial, 0, len(rows)*perRow)
	for _, row := range rows {
		for _, kind := range kinds {
			for t := 0; t < trials; t++ {
				ts = append(ts, harness.Trial{
					Index: len(ts),
					Seed:  harness.TrialSeed(baseSeed, kind.seedIndex, t),
					Label: fmt.Sprintf("%s/%s/%s/t%d", name, row.label, kind.label, t),
				})
			}
		}
	}
	flat, err := harness.Run(cfg, ts, func(tr harness.Trial) T {
		return rows[tr.Index/perRow].run(tr.Index%perRow/trials, tr.Seed)
	})
	if err != nil {
		panic(err)
	}
	results := make([][]T, len(rows))
	for r := range rows {
		results[r] = flat[r*perRow : (r+1)*perRow]
	}
	return results
}
