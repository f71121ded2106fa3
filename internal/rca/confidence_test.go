package rca

import (
	"reflect"
	"strings"
	"testing"

	"mars/internal/controlplane"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/topology"
)

func TestCulpritConfidenceString(t *testing.T) {
	c := Culprit{Cause: CauseDelay, Level: LevelSwitch,
		Location: []topology.NodeID{3}, Score: 1.5}
	if s := c.String(); strings.Contains(s, "conf=") {
		t.Errorf("full-confidence culprit annotated: %q", s)
	}
	c.Confidence = 1
	if s := c.String(); strings.Contains(s, "conf=") {
		t.Errorf("confidence 1 annotated: %q", s)
	}
	c.Confidence = 0.75
	if s := c.String(); !strings.Contains(s, "conf=0.75") {
		t.Errorf("partial-coverage culprit missing annotation: %q", s)
	}
}

func TestMergeKeepsBestConfidence(t *testing.T) {
	// The same culprit seen by a partial diagnosis (coverage 0.5) and a
	// complete one (1.0) must keep the better coverage after merging.
	mk := func(conf float64) Culprit {
		return Culprit{Cause: CauseDelay, Level: LevelSwitch,
			Location: []topology.NodeID{7}, Score: 1, Confidence: conf}
	}
	merged := MergeRanked([][]Culprit{{mk(0.5)}, {mk(1.0)}})
	if len(merged) != 1 {
		t.Fatalf("merged = %d culprits, want 1", len(merged))
	}
	if merged[0].Confidence != 1.0 {
		t.Errorf("confidence = %v, want the best (1.0)", merged[0].Confidence)
	}
	// Order independence: partial-after-complete keeps 1.0 too.
	merged = MergeRanked([][]Culprit{{mk(1.0)}, {mk(0.5)}})
	if merged[0].Confidence != 1.0 {
		t.Errorf("confidence = %v after reversed merge, want 1.0", merged[0].Confidence)
	}
}

// fixedConfidence is a codec whose every snapshot has one confidence.
type fixedConfidence struct {
	dataplane.Mars11
	conf float64
}

func (c fixedConfidence) Confidence([]dataplane.RTRecord) float64 { return c.conf }

// TestAnalyzeScalesByCodecConfidence: Analyze multiplies the collection's
// sink coverage by the codec's Confidence and stamps the product on every
// culprit; the ranking is the codec-free one.
func TestAnalyzeScalesByCodecConfidence(t *testing.T) {
	f := newFixture(t)
	d := controlplane.Diagnosis{
		Records:      interleavedWindow(t, f),
		Time:         400 * netsim.Millisecond,
		Requested:    4,
		MissingSinks: []topology.NodeID{f.ft.EdgeIDs[7]},
	}
	plain := analyzer(f).Analyze(d)
	if len(plain) == 0 {
		t.Fatal("no culprits; the comparison is vacuous")
	}
	cfg := DefaultConfig()
	cfg.Codec = fixedConfidence{conf: 0.5}
	got := New(cfg, f.table, fixedThr(10*netsim.Millisecond)).Analyze(d)
	if len(got) != len(plain) {
		t.Fatalf("%d culprits under the codec, %d without", len(got), len(plain))
	}
	for i := range got {
		if plain[i].Confidence != 0.75 || got[i].Confidence != 0.375 {
			t.Errorf("culprit %d: confidence %v without the codec and %v with it, want 0.75 and 0.375", i, plain[i].Confidence, got[i].Confidence)
		}
		got[i].Confidence = plain[i].Confidence
		if !reflect.DeepEqual(got[i], plain[i]) {
			t.Errorf("culprit %d = %v under the codec, %v without", i, got[i], plain[i])
		}
	}
}
