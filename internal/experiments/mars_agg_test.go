package experiments

import (
	"testing"

	"mars"
	"mars/internal/faults"
	"mars/internal/metrics"
)

// TestMARSAggregate runs several MARS trials per fault and reports R@k —
// the integration health check for Table 1's MARS column.
func TestMARSAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	trials := 8
	for _, kind := range faults.Kinds() {
		var loc metrics.Localization
		for i := 0; i < trials; i++ {
			r := RunTrial(SysMARS, mars.DefaultScenario(int64(1000+i*37), kind))
			loc.Add(r.Rank)
			if r.Rank == 0 || r.Rank > 2 {
				t.Logf("  MISS %v seed=%d rank=%d gt=%v detected=%v", kind, 1000+i*37, r.Rank, r.GT, r.Detected)
			}
		}
		t.Logf("%-14s R@1=%.2f R@2=%.2f R@3=%.2f R@5=%.2f exam=%.1f",
			kind, loc.RecallAt(1), loc.RecallAt(2), loc.RecallAt(3), loc.RecallAt(5), loc.MeanExamScore())
	}
}
