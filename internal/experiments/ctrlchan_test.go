package experiments

import (
	"strings"
	"testing"

	"mars"
	"mars/internal/faults"
)

func TestCtrlChanResultRender(t *testing.T) {
	r := &CtrlChanResult{Trials: 1, Rows: []CtrlChanRow{
		{Loss: 0.1, Retry: true, Detected: 4},
		{Loss: 0.1, Retry: false, Detected: 2},
	}}
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
	sc := mars.DefaultScenario(5, faults.Delay)
	a := marsTrial(sc, lossyChannel(0.25, true), mars.Locates)
	b := marsTrial(sc, lossyChannel(0.25, true), mars.Locates)
	if a.Rank != b.Rank || a.Diagnoses != b.Diagnoses ||
		a.PartialDiagnoses != b.PartialDiagnoses || a.DiagnosisBytes != b.DiagnosisBytes {
		t.Errorf("same trial config diverged:\n%+v\n%+v", a, b)
	}
	// The no-retry ablation at the same loss leaves far more collections
	// partial; the retry budget is what keeps diagnosis data complete.
	n := marsTrial(sc, lossyChannel(0.25, false), mars.Locates)
	if n.PartialDiagnoses <= a.PartialDiagnoses {
		t.Errorf("no-retry partial=%d not above retry partial=%d (of %d/%d diagnoses)",
			n.PartialDiagnoses, a.PartialDiagnoses, n.Diagnoses, a.Diagnoses)
	}
}
