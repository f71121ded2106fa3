package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mars"
	"mars/internal/faults"
	"mars/internal/harness"
)

func TestFig2ShapeCoreHotterThanEdge(t *testing.T) {
	r := RunFig2(1)
	if r.Core.Mean() == 0 || r.Edge.Mean() == 0 {
		t.Fatal("empty or idle CDFs")
	}
	if r.Core.Mean() <= r.Edge.Mean() {
		t.Errorf("core mean %.3f not above edge mean %.3f (paper's Fig 2 shape)",
			r.Core.Mean(), r.Edge.Mean())
	}
	if !strings.Contains(r.Render(), "core") {
		t.Error("render missing core row")
	}
}

func TestFig3Shape(t *testing.T) {
	r := RunFig3()
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// INT-MD grows with hops; the others are flat.
	if r.Rows[9].INTMDBytes <= r.Rows[0].INTMDBytes {
		t.Error("INT-MD header should grow with path length")
	}
	if r.Rows[9].MARSBytes != r.Rows[0].MARSBytes {
		t.Error("MARS header must be flat")
	}
	// MARS saves most of IntSight's path-encoding memory.
	if r.SavingsPct < 50 {
		t.Errorf("savings = %.1f%%, want > 50%%", r.SavingsPct)
	}
	if r.MARSEntries >= r.IntSightEntries {
		t.Error("MARS must need fewer MAT entries")
	}
}

func TestFig5Shape(t *testing.T) {
	r := RunFig5(1)
	if len(r.Points) == 0 {
		t.Fatal("no trace")
	}
	// The dynamic detector handles both failure modes of the statics.
	if r.DynFN > r.StaFN && r.DynFP > r.StaLowFP {
		t.Errorf("dynamic detector worse on both axes: %+v", r)
	}
	if r.DynFP+r.DynFN >= r.StaFP+r.StaFN+r.StaLowFP+r.StaLowFN {
		t.Errorf("dynamic total errors (%d) not below combined statics", r.DynFP+r.DynFN)
	}
	if r.StaFN == 0 && r.StaLowFP == 0 {
		t.Error("static thresholds showed no dilemma; scenario too easy")
	}
}

func TestFig7Shape(t *testing.T) {
	r := RunFig7(1000)
	if len(r.BurstT) == 0 || len(r.ECMPT) == 0 {
		t.Fatal("empty traces")
	}
	// (a) median latency during the burst window must exceed the pre-burst
	// median (medians are robust to transient background spikes).
	var pre, dur []float64
	for i, ts := range r.BurstT {
		switch {
		case ts < 2.0 && ts > 0.5:
			pre = append(pre, r.BurstLatencyMs[i])
		case ts > 2.3 && ts < 3.0:
			dur = append(dur, r.BurstLatencyMs[i])
		}
	}
	if len(pre) == 0 || len(dur) == 0 {
		t.Fatal("trace windows empty")
	}
	sort.Float64s(pre)
	sort.Float64s(dur)
	if dur[len(dur)/2] < 1.5*pre[len(pre)/2] {
		t.Errorf("burst median latency %.2f not above 1.5x baseline %.2f", dur[len(dur)/2], pre[len(pre)/2])
	}
	// (b) the skewed split must diverge during the fault.
	var ratioDur float64
	var n int
	for i, ts := range r.ECMPT {
		if ts > 2.3 && ts < 3.4 {
			if r.ECMPLightPPS[i] > 0 {
				ratioDur += r.ECMPHeavyPPS[i] / r.ECMPLightPPS[i]
				n++
			}
		}
	}
	if n == 0 || ratioDur/float64(n) < 2 {
		t.Errorf("ECMP heavy/light ratio %.2f during fault, want >= 2", ratioDur/float64(n))
	}
}

func TestFig8Shape(t *testing.T) {
	r := RunFig8(1, 12, 500)
	scores := map[string]float64{}
	for _, row := range r.Rows {
		scores[row.Name] = row.F1()
	}
	if scores["reservoir"] <= scores["static-low"] || scores["reservoir"] <= scores["static-mid"] {
		t.Errorf("reservoir F1 %.3f not above low/mid statics (%v)", scores["reservoir"], scores)
	}
	if scores["reservoir"] <= scores["reservoir-noalpha"] {
		t.Errorf("penalty factor did not help: %v", scores)
	}
}

func TestFig10Shape(t *testing.T) {
	r := RunFig10()
	if len(r.Rows) < 3 {
		t.Fatal("too few sweep points")
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].SRAMPct <= r.Rows[i-1].SRAMPct {
			t.Error("SRAM must grow with ring size")
		}
		if r.Rows[i].PHVPct != r.Rows[0].PHVPct {
			t.Error("PHV must be flat")
		}
	}
	// MARS "fits comfortably": every class below 10% at the default ring.
	for _, u := range r.Rows {
		if u.RingSize == 512 {
			for name, v := range map[string]float64{
				"sram": u.SRAMPct, "phv": u.PHVPct, "hash": u.HashBitsPct,
				"tcam": u.TCAMPct, "action": u.ActionDataPct,
			} {
				if v > 10 {
					t.Errorf("%s = %.1f%% at ring 512", name, v)
				}
			}
		}
	}
}

func TestFig11AllMinersAgree(t *testing.T) {
	r := RunFig11(1, 800, 1)
	if len(r.Rows) != 7 {
		t.Fatalf("miners = %d", len(r.Rows))
	}
	want := r.Rows[0].NPatterns
	for _, row := range r.Rows {
		if row.NPatterns != want {
			t.Errorf("%s found %d patterns, others %d", row.Name, row.NPatterns, want)
		}
		if row.Runtime <= 0 {
			t.Errorf("%s runtime not measured", row.Name)
		}
	}
}

func TestPathIDMemoryShape(t *testing.T) {
	r := RunPathIDMemory()
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		if row.Bytes >= r.IntSightBytes {
			t.Errorf("%s/%d: %d B not below IntSight %d B", row.Alg, row.Width, row.Bytes, r.IntSightBytes)
		}
	}
}

func TestFig9ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// One delay trial per system is enough to check the overhead ordering.
	tel := map[SystemKind]int64{}
	diag := map[SystemKind]int64{}
	for _, sys := range Systems() {
		r := RunTrial(sys, mars.DefaultScenario(5, faults.Delay))
		tel[sys] = r.TelemetryBytes
		diag[sys] = r.DiagnosisBytes
	}
	if tel[SysSyNDB] != 0 {
		t.Error("SyNDB must add no telemetry header")
	}
	if !(tel[SysIntSight] > tel[SysSpiderMon] && tel[SysSpiderMon] > tel[SysMARS]) {
		t.Errorf("telemetry ordering wrong: %v", tel)
	}
	if diag[SysSyNDB] <= diag[SysMARS] {
		t.Errorf("SyNDB diagnosis bytes %d not above MARS %d", diag[SysSyNDB], diag[SysMARS])
	}
}

func TestTable1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := RunTable1With(harness.Config{}, 2, 77)
	if res.Trials != 2 {
		t.Fatal("trials mismatch")
	}
	// MARS must beat SpiderMon and IntSight overall (the paper's headline
	// comparison); two trials per fault is enough for the gap given that
	// those baselines cannot rank delay and drop at all.
	mars := res.Overall(SysMARS)
	sm := res.Overall(SysSpiderMon)
	is := res.Overall(SysIntSight)
	if mars.RecallAt(5) <= sm.RecallAt(5) || mars.RecallAt(5) <= is.RecallAt(5) {
		t.Errorf("MARS R@5 %.2f not above SpiderMon %.2f / IntSight %.2f",
			mars.RecallAt(5), sm.RecallAt(5), is.RecallAt(5))
	}
	out := res.Render()
	if !strings.Contains(out, "overall") {
		t.Error("render missing overall rows")
	}
}

func TestScaleSweepShape(t *testing.T) {
	r := RunScaleWith(harness.Config{}, []int{4, 6})
	if len(r.Rows) != 2 {
		t.Fatal("rows")
	}
	// Header bytes flat with scale; MARS memory far below IntSight's.
	if r.Rows[0].HeaderB != r.Rows[1].HeaderB {
		t.Error("header bytes grew with K")
	}
	for _, row := range r.Rows {
		if row.MATBytes >= row.IntSightBytes {
			t.Errorf("K=%d: MARS %d B not below IntSight %d B", row.K, row.MATBytes, row.IntSightBytes)
		}
	}
	// IntSight's cost grows superlinearly with the path set.
	if r.Rows[1].IntSightBytes <= r.Rows[0].IntSightBytes*2 {
		t.Error("per-hop encoding did not blow up with scale")
	}
}

// An out-of-range SystemKind used to fall through to SyNDB and come back
// as a SyNDB-labelled result; it must fail loudly, naming the kind.
func TestRunTrialRejectsUnknownSystem(t *testing.T) {
	const bogus = SystemKind(9)
	if got := bogus.String(); got != "SystemKind(9)" {
		t.Errorf("String() = %q, want SystemKind(9)", got)
	}
	sc := mars.DefaultScenario(1, faults.Delay)
	_, err := harness.Run(harness.Config{Workers: 1}, []harness.Trial{{Label: "bogus"}},
		func(harness.Trial) TrialResult { return RunTrial(bogus, sc) })
	var te *harness.TrialError
	if !errors.As(err, &te) {
		t.Fatalf("RunTrial(%v) through the harness returned err=%v, want a *harness.TrialError", bogus, err)
	}
	if msg := fmt.Sprint(te.Recovered); !strings.Contains(msg, "SystemKind(9)") {
		t.Errorf("panic %q does not name the kind", msg)
	}
}
