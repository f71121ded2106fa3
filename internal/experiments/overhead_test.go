package experiments

import (
	"reflect"
	"strings"
	"testing"

	"mars"
	"mars/internal/faults"
)

// TestOverheadRowMath pins the derived cost metrics and rendering without
// running any simulation.
func TestOverheadRowMath(t *testing.T) {
	row := OverheadRow{Codec: "mars11", TelemetryBytes: 440, TotalLinkBytes: 10440, Packets: 100}
	if got := row.BytesPerPacket(); got != 4.4 {
		t.Errorf("BytesPerPacket = %v, want 4.4", got)
	}
	if got := row.UtilizationInflation(); got != 0.044 {
		t.Errorf("UtilizationInflation = %v, want 0.044", got)
	}
	var zero OverheadRow
	if zero.BytesPerPacket() != 0 || zero.UtilizationInflation() != 0 {
		t.Error("zero row must not divide by zero")
	}

	res := &OverheadResult{Trials: 1, Rows: []OverheadRow{row}}
	out := res.Render()
	if !strings.Contains(out, "mars11") || !strings.Contains(out, "B/pkt") {
		t.Errorf("render missing columns:\n%s", out)
	}
}

// TestOverheadCodecTrialQuick runs one delay trial per codec and checks
// the frontier's deterministic properties: the default (empty) codec and
// an explicit mars11 are indistinguishable, repeated runs are identical,
// and per-trial telemetry cost orders sampled < mars11 < pintlike <
// perhop exactly as the declared wire widths dictate.
func TestOverheadCodecTrialQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sc := mars.DefaultScenario(5, faults.Delay)
	codec := func(name string) func(*mars.Config) {
		return func(cfg *mars.Config) { cfg.Codec = name }
	}
	results := map[string]TrialResult{}
	for _, name := range append([]string{""}, OverheadCodecs...) {
		results[name] = marsTrial(sc, codec(name), mars.Locates)
	}

	// The pluggable seam must be invisible when the paper's codec is
	// selected explicitly — same seed, same everything.
	if !reflect.DeepEqual(results[""], results["mars11"]) {
		t.Errorf("explicit mars11 diverged from the default path:\n%+v\n%+v",
			results[""], results["mars11"])
	}
	// And deterministic across repeats.
	if again := marsTrial(sc, codec("perhop"), mars.Locates); !reflect.DeepEqual(again, results["perhop"]) {
		t.Errorf("perhop trial not deterministic:\n%+v\n%+v", again, results["perhop"])
	}

	cost := func(codec string) int64 { return results[codec].TelemetryBytes }
	if !(cost("sampled") < cost("mars11") && cost("mars11") < cost("pintlike") && cost("pintlike") < cost("perhop")) {
		t.Errorf("telemetry cost ordering wrong: sampled=%d mars11=%d pintlike=%d perhop=%d",
			cost("sampled"), cost("mars11"), cost("pintlike"), cost("perhop"))
	}
	for _, name := range OverheadCodecs {
		if !results[name].Detected {
			t.Errorf("%s: delay fault went undetected", name)
		}
		if results[name].Packets == 0 || results[name].TelemetryPackets == 0 {
			t.Errorf("%s: packet accounting empty: %+v", name, results[name])
		}
	}
}
