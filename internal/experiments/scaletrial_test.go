package experiments

import (
	"strings"
	"testing"

	"mars/internal/netsim"
)

// The scale trial's simulated outcome must be invariant under the owner
// count: Render() — the exact bytes CI diffs — is compared across a
// one-owner and a three-owner run of the same config. (k=4 keeps the test
// fast; the k=16/k=32 arities exercise the same code paths at size.)
func TestScaleTrialShardInvariance(t *testing.T) {
	tc := DefaultScaleTrialConfig(4, 1, 7)
	tc.NumFlows = 32
	tc.RatePPS = 150
	tc.Total = 200 * netsim.Millisecond
	var (
		beats int
		last  int64
	)
	a := RunScaleTrial(tc, nil)
	tc.Shards = 3
	b := RunScaleTrial(tc, func(_ netsim.Time, events int64) { beats++; last = events })
	if a.Delivered == 0 || a.TelemetryPackets == 0 {
		t.Fatalf("degenerate trial: %+v", a)
	}
	if ra, rb := a.Render(), b.Render(); ra != rb {
		t.Fatalf("render diverges across shard counts:\nshards=1:\n%s\nshards=3:\n%s", ra, rb)
	}
	if beats != 5 || last != b.Events {
		t.Errorf("heartbeat fired %d times ending at %d events, want once per 50 ms slice (5) ending at %d", beats, last, b.Events)
	}
	if a.Shards != 1 || b.Shards != 3 {
		t.Errorf("effective shard counts %d/%d, want 1/3", a.Shards, b.Shards)
	}
	if a.Mem.Switches != a.Switches {
		t.Errorf("memory estimate covers %d switches, fabric has %d", a.Mem.Switches, a.Switches)
	}
	if !strings.Contains(b.TimingLine(), "shards=3") {
		t.Errorf("timing line missing shard count: %q", b.TimingLine())
	}
}
