package harness

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// trialsN builds n trials with synthetic seeds and labels.
func trialsN(n int) []Trial {
	ts := make([]Trial, n)
	for i := range ts {
		ts[i] = Trial{Index: i, Seed: int64(100 + i), Label: fmt.Sprintf("t%d", i)}
	}
	return ts
}

// TestRunResultsIndexedAndWorkerInvariant runs a CPU-skewed workload (late
// trials finish first) under several worker counts and requires the result
// slice to be identical to the sequential one every time.
func TestRunResultsIndexedAndWorkerInvariant(t *testing.T) {
	const n = 64
	fn := func(tr Trial) int64 {
		// Skew work so completion order differs from index order: early
		// trials burn more cycles than late ones.
		acc := tr.Seed
		for i := 0; i < (n-tr.Index)*1500; i++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
		return acc ^ tr.Seed
	}
	want, err := Run(Config{Workers: 1}, trialsN(n), fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 100} {
		got, err := Run(Config{Workers: workers}, trialsN(n), fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, sequential %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunPanicBecomesTypedError checks the panic policy: a bad trial is
// recovered into a *TrialError naming it, surviving trials still produce
// their results, and the joined error is in trial order.
func TestRunPanicBecomesTypedError(t *testing.T) {
	ts := trialsN(8)
	results, err := Run(Config{Workers: 4}, ts, func(tr Trial) int {
		if tr.Index == 3 || tr.Index == 5 {
			panic(fmt.Sprintf("boom %d", tr.Index))
		}
		return tr.Index * 10
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("error not a *TrialError: %v", err)
	}
	if te.Trial.Index != 3 {
		t.Errorf("first joined error names trial %d, want 3", te.Trial.Index)
	}
	if te.Recovered != "boom 3" {
		t.Errorf("recovered value = %v", te.Recovered)
	}
	if len(te.Stack) == 0 {
		t.Error("no stack captured")
	}
	for i, r := range results {
		switch i {
		case 3, 5:
			if r != 0 {
				t.Errorf("panicked trial %d has non-zero result %d", i, r)
			}
		default:
			if r != i*10 {
				t.Errorf("surviving trial %d result %d, want %d", i, r, i*10)
			}
		}
	}
}

// TestRunProgressCountsEachTrialOnce verifies the progress hook fires
// exactly once per trial with unique done counts covering 1..n.
func TestRunProgressCountsEachTrialOnce(t *testing.T) {
	const n = 32
	var mu sync.Mutex
	seenDone := map[int]bool{}
	seenTrial := map[int]int{}
	cfg := Config{Workers: 4, Progress: func(done, total int, tr Trial, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		if elapsed < 0 {
			t.Errorf("negative elapsed %v", elapsed)
		}
		seenDone[done] = true
		seenTrial[tr.Index]++
	}}
	if _, err := Run(cfg, trialsN(n), func(tr Trial) int { return tr.Index }); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if !seenDone[i] {
			t.Errorf("done count %d never reported", i)
		}
		if seenTrial[i-1] != 1 {
			t.Errorf("trial %d reported %d times", i-1, seenTrial[i-1])
		}
	}
}

// TestRunEmptyAndDefaults covers the zero-trial case and worker clamping.
func TestRunEmptyAndDefaults(t *testing.T) {
	results, err := Run(Config{}, nil, func(Trial) int { return 1 })
	if err != nil || len(results) != 0 {
		t.Fatalf("empty run: %v, %v", results, err)
	}
	// Workers beyond the trial count must not deadlock or drop trials.
	results, err = Run(Config{Workers: 50}, trialsN(3), func(tr Trial) int { return tr.Index + 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[2] != 3 {
		t.Fatalf("clamped run results: %v", results)
	}
}
