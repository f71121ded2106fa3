package experiments

import (
	"strings"
	"testing"

	"mars/internal/faults"
)

func TestCtrlChanResultRenderAndLookup(t *testing.T) {
	r := &CtrlChanResult{Trials: 1, Rows: []CtrlChanRow{
		{Loss: 0.1, Retry: true, Detected: 4},
		{Loss: 0.1, Retry: false, Detected: 2},
	}}
	if r.Row(0.1, true) == nil || r.Row(0.1, false) == nil {
		t.Fatal("lookup failed")
	}
	if r.Row(0.2, true) != nil {
		t.Error("lookup invented a row")
	}
	out := r.Render()
	if !strings.Contains(out, "retry") || !strings.Contains(out, "no-retry") {
		t.Errorf("render missing mode labels:\n%s", out)
	}
}

func TestCtrlChanTrialKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// Identical trials through the realistic lossy channel must agree
	// exactly (the sweep's determinism rests on this).
	tc := DefaultTrialConfig(5, faults.Delay)
	tc.CtrlLossy, tc.CtrlLoss = true, 0.25
	a := RunTrial(SysMARS, tc)
	b := RunTrial(SysMARS, tc)
	if a.Rank != b.Rank || a.Diagnoses != b.Diagnoses ||
		a.PartialDiagnoses != b.PartialDiagnoses || a.DiagnosisBytes != b.DiagnosisBytes {
		t.Errorf("same trial config diverged:\n%+v\n%+v", a, b)
	}
	// The no-retry ablation at the same loss leaves far more collections
	// partial; the retry budget is what keeps diagnosis data complete.
	tc.CtrlNoRetry = true
	n := RunTrial(SysMARS, tc)
	if n.PartialDiagnoses <= a.PartialDiagnoses {
		t.Errorf("no-retry partial=%d not above retry partial=%d (of %d/%d diagnoses)",
			n.PartialDiagnoses, a.PartialDiagnoses, n.Diagnoses, a.Diagnoses)
	}
}
