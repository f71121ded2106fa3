package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const baseline = `goos: linux
BenchmarkNetsimStep-8 	  300000	       700.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkNetsimStep-8 	  300000	       705.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkNetsimStep-8 	  300000	       710.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkPerHopFold-8 	 2000000	        90.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyzeWindow/PathCount1-8 	    1000	     85000 ns/op	   30096 B/op	     370 allocs/op
`

func parse(t *testing.T, content string) map[string]row {
	t.Helper()
	m, err := parseBench(writeBench(t, "bench.txt", content))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// gateFresh gates a fresh run against the baseline above.
func gateFresh(t *testing.T, fresh string) ([]gateResult, bool) {
	t.Helper()
	return gate(parse(t, baseline), parse(t, fresh))
}

func TestParseStripsProcsSuffixAndCollectsSeries(t *testing.T) {
	m := parse(t, baseline)
	r, ok := m["BenchmarkNetsimStep"]
	if !ok {
		t.Fatalf("missing BenchmarkNetsimStep; got %v", m)
	}
	if len(r["ns/op"]) != 3 || len(r["B/op"]) != 3 || len(r["allocs/op"]) != 3 {
		t.Fatalf("row = %v, want 3 samples of ns/op, B/op and allocs/op", r)
	}
	if got := median(r["ns/op"]); got != 705.0 {
		t.Errorf("median = %v, want 705", got)
	}
	if _, ok := m["BenchmarkAnalyzeWindow/PathCount1"]; !ok {
		t.Errorf("sub-benchmark row not parsed; got %v", m)
	}
}

func TestGatePassesOnNoise(t *testing.T) {
	// ns/op moves, and B/op by the few bytes of map growth that follows
	// the hash seed.
	if _, failed := gateFresh(t, `
BenchmarkNetsimStep-8 	  300000	       712.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkPerHopFold-8 	 2000000	        89.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyzeWindow/PathCount1-8 	    1000	     91000 ns/op	   30102 B/op	     370 allocs/op
`); failed {
		t.Error("ns/op noise and B/op jitter within the tolerance must pass")
	}
}

func TestGateFailsOnAllocIncrease(t *testing.T) {
	if _, failed := gateFresh(t, `
BenchmarkNetsimStep-8 	  300000	       700.0 ns/op	      16 B/op	       1 allocs/op
BenchmarkPerHopFold-8 	 2000000	        90.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyzeWindow/PathCount1-8 	    1000	     85000 ns/op	   30096 B/op	     370 allocs/op
`); !failed {
		t.Error("allocs/op increase must fail even with flat ns/op")
	}
}

func TestGatePrintsSlowdownWithoutFailing(t *testing.T) {
	results, failed := gateFresh(t, `
BenchmarkNetsimStep-8 	  300000	      1410.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkPerHopFold-8 	 2000000	        90.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyzeWindow/PathCount1-8 	    1000	     85000 ns/op	   30096 B/op	     370 allocs/op
`)
	if failed {
		t.Error("a 2x ns/op slowdown must not fail: wall time is not gated")
	}
	for _, r := range results {
		if r.name == "BenchmarkNetsimStep" && !strings.Contains(r.detail, "ns/op 705.0 -> 1410.0") {
			t.Errorf("detail %q does not print the ns/op medians", r.detail)
		}
	}
}

func TestGateFailsOnBytesGrowth(t *testing.T) {
	// Allocation count flat, every allocation 10 % larger.
	if _, failed := gateFresh(t, `
BenchmarkNetsimStep-8 	  300000	       700.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkPerHopFold-8 	 2000000	        90.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyzeWindow/PathCount1-8 	    1000	     85000 ns/op	   33106 B/op	     370 allocs/op
`); !failed {
		t.Error("B/op growth past the tolerance must fail with flat allocs/op")
	}
}

func TestGateFailsOnMissingAllocColumn(t *testing.T) {
	// The row ran without -benchmem: it must not drop out of the gate.
	results, failed := gateFresh(t, `
BenchmarkNetsimStep-8 	  300000	       700.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkPerHopFold-8 	 2000000	        90.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyzeWindow/PathCount1-8 	    1000	     85000 ns/op
`)
	if !failed {
		t.Error("a gated row without allocs/op and B/op in the new run must fail")
	}
	for _, r := range results {
		if r.name == "BenchmarkAnalyzeWindow/PathCount1" && r.verdict != "FAIL" {
			t.Errorf("%s verdict = %s, want FAIL", r.name, r.verdict)
		}
	}
}

func TestGateHandlesMissingBenchmarks(t *testing.T) {
	results, failed := gateFresh(t, `
BenchmarkNetsimStep-8 	  300000	       700.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyzeWindow/PathCount1-8 	    1000	     85000 ns/op	   30096 B/op	     370 allocs/op
BenchmarkBrandNew-8   	  300000	       100.0 ns/op	       0 B/op	       0 allocs/op
`)
	if failed {
		t.Error("missing benchmarks must not fail the gate")
	}
	skips := 0
	for _, r := range results {
		if r.verdict == "skip" {
			skips++
		}
	}
	if skips != 2 {
		t.Errorf("skips = %d, want 2 (one absent from each side)", skips)
	}
}
