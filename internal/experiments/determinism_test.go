package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mars"
	"mars/internal/controlplane"
	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/faults"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
)

// culpritDigest runs one full seeded MARS trial — simulator, data plane,
// control channel, RCA — and hashes the merged ranked-culprit list,
// including every field that reaches an operator. Two runs with the same
// seed must produce the same digest bit for bit; this is the regression
// net under the mapiter/detrand fixes (map-iteration order and ambient
// randomness were the ways runs used to diverge).
func culpritDigest(t *testing.T, tc TrialConfig) string {
	t.Helper()
	ft := newFatTree(tc)
	dcfg := dataplane.DefaultProgramConfig()
	table, err := pathid.BuildTable(dcfg.PathCfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		t.Fatal(err)
	}
	prog := dataplane.New(dcfg, ft.Topology, table, nil)
	router := netsim.NewECMPRouter(ft.Topology, uint64(tc.Seed))
	sim := netsim.New(ft.Topology, router, prog, mars.DefaultConfig().Sim, tc.Seed)
	ch := ctrlchan.New(sim, ctrlchan.Config{Seed: tc.Seed + 7})
	ccfg := controlplane.DefaultConfig()
	ccfg.Seed = tc.Seed
	ctrl := controlplane.New(ccfg, sim, ft.Topology, ch)
	agent := controlplane.NewAgent(&controlplane.LiveRegisters{Program: prog}, ch, &ctrl.Bytes, ctrl.Deliver)
	ctrl.ToSwitch = agent.Deliver
	prog.Notifier = agent
	ctrl.Start()

	analyzer := rca.New(rca.DefaultConfig(), table, ctrl)
	var lists [][]rca.Culprit
	ctrl.OnDiagnosis = func(d controlplane.Diagnosis) {
		if d.Time >= tc.FaultStart {
			lists = append(lists, analyzer.Analyze(d))
		}
	}

	mars.InstallBackground(sim, ft, tc.Flows, tc.RatePPS)
	inj := faults.NewInjector(sim, ft, router)
	inj.Chan = ch
	inj.Inject(tc.Fault, tc.FaultStart, tc.FaultDur)
	sim.Run(tc.RunFor)

	h := sha256.New()
	for _, c := range rca.MergeRanked(lists) {
		fmt.Fprintf(h, "%d|%d|%v|%v|%v|%.9e|%.9e\n",
			c.Cause, c.Level, c.Location, c.Flow, c.String(), c.Score, c.Confidence)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSeededRunsAreDeterministic asserts that two identical seeded MARS
// trials rank culprits identically, for a fault whose diagnosis exercises
// the flow-level (micro-burst) signature path and one that exercises the
// switch-level (congestion/ECMP) path.
func TestSeededRunsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full seeded trials are not short")
	}
	for _, kind := range []faults.Kind{faults.MicroBurst, faults.ProcessRateDecrease} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			tc := TrialConfig{Scenario: mars.DefaultScenario(11, kind)}
			first := culpritDigest(t, tc)
			second := culpritDigest(t, tc)
			if first != second {
				t.Fatalf("two identical seeded runs diverged: %s vs %s", first, second)
			}
			if first == hex.EncodeToString(sha256.New().Sum(nil)) {
				t.Fatalf("trial produced no culprits; the determinism check is vacuous")
			}
		})
	}
}
