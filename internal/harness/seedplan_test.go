package harness

import "testing"

// TestLegacyPlanPinsHistoricalFormulas is the regression pin for the seed
// arithmetic every published EXPERIMENTS.md number depends on. If either
// expression changes, recorded Table-1/ctrlchan results silently stop
// being reproducible — so the formulas are asserted literally.
func TestLegacyPlanPinsHistoricalFormulas(t *testing.T) {
	for _, tt := range []struct {
		base        int64
		kind, trial int
		want        int64
	}{
		{1000, 0, 0, 1000},
		{1000, 3, 7, 4007},
		{77, 4, 1, 4078},
		{-50, 2, 999, 2949},
	} {
		if got := TrialSeed(tt.base, tt.kind, tt.trial); got != tt.want {
			t.Errorf("TrialSeed(%d,%d,%d) = %d, want %d", tt.base, tt.kind, tt.trial, got, tt.want)
		}
	}
	if got := CtrlChanSeed(4007); got != 4014 {
		t.Errorf("CtrlChanSeed(4007) = %d, want 4014", got)
	}
}

// TestLegacyPlanNoCollidingSeeds proves the legacy plan emits no colliding
// seeds across the Table-1 and ctrlchan sweeps: every (kind, trial)
// coordinate in those sweeps gets a distinct substrate seed (up to the
// documented 1000-trial stride), and within each trial the control-channel
// stream never aliases the substrate stream. The ctrlchan sweep reuses the
// Table-1 seeds at every loss point BY DESIGN (each sweep point must face
// the same fault sequence), so cross-sweep seed equality at equal
// (kind, trial) is asserted, not forbidden.
func TestLegacyPlanNoCollidingSeeds(t *testing.T) {
	const kinds = 6 // faults.Kinds() plus headroom for the next injector
	for _, trials := range []int{8, 24, 999} {
		seen := map[int64][2]int{}
		for k := 0; k < kinds; k++ {
			for tr := 0; tr < trials; tr++ {
				s := TrialSeed(1000, k, tr)
				if prev, dup := seen[s]; dup {
					t.Fatalf("trials=%d: seed %d collides: (kind %d, trial %d) and (kind %d, trial %d)",
						trials, s, prev[0], prev[1], k, tr)
				}
				seen[s] = [2]int{k, tr}
				if cs := CtrlChanSeed(s); cs == s {
					t.Fatalf("control-channel seed aliases substrate seed %d", s)
				}
			}
		}
	}
	// The documented cap: at trial 1000 the plan aliases the next kind.
	if TrialSeed(0, 0, 1000) != TrialSeed(0, 1, 0) {
		t.Error("stride documentation is stale: trial 1000 no longer aliases the next kind")
	}
}
