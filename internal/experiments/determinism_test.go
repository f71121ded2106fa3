package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mars"
	"mars/internal/faults"
)

// culpritDigest runs one full seeded MARS trial the way the experiments
// run it (startMARS: mars.NewSystem's simulator, data plane, control
// channel and RCA, under the oracle fold) and hashes the merged
// ranked-culprit list, including every field that reaches an operator.
// Two runs with the same seed must produce the same digest bit for bit;
// this is the regression net under the mapiter/detrand fixes
// (map-iteration order and ambient randomness were the ways runs used to
// diverge).
func culpritDigest(sc mars.Scenario) string {
	m := startMARS(sc, nil)
	m.sys.InjectFault(sc.Fault, sc.FaultStart, sc.FaultDur)
	m.sys.Run(sc.RunFor)

	h := sha256.New()
	for _, c := range m.merged.Ranked() {
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
			sc := mars.DefaultScenario(11, kind)
			first := culpritDigest(sc)
			second := culpritDigest(sc)
			if first != second {
				t.Fatalf("two identical seeded runs diverged: %s vs %s", first, second)
			}
			if first == hex.EncodeToString(sha256.New().Sum(nil)) {
				t.Fatalf("trial produced no culprits; the determinism check is vacuous")
			}
		})
	}
}
