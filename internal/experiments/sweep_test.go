package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mars/internal/harness"
)

// sweepCall is what the stub run function saw and returns.
type sweepCall struct {
	row, kind int
	seed      int64
}

// TestSweepEnumeration pins the one trial matrix: over a rows x kinds x
// trials grid, at 1 and 8 workers, every trial runs exactly once with the
// harness.TrialSeed seed of its (kind, trial), results[row] comes back in
// (kind, trial) order, and every trial carries a unique label.
func TestSweepEnumeration(t *testing.T) {
	const (
		nRows    = 3
		trials   = 4
		baseSeed = 500
	)
	kinds := []sweepKind{{0, "a"}, {7, "b"}, {100, "c"}}
	for _, workers := range []int{1, 8} {
		var (
			mu sync.Mutex
			// ran counts executions per call, labels completions per
			// trial label; guarded by mu.
			ran    = map[sweepCall]int{}
			labels = map[string]int{}
		)
		var rows []sweepRow[sweepCall]
		for r := 0; r < nRows; r++ {
			rows = append(rows, sweepRow[sweepCall]{fmt.Sprintf("r%d", r), func(k int, seed int64) sweepCall {
				c := sweepCall{r, k, seed}
				mu.Lock()
				defer mu.Unlock()
				ran[c]++
				return c
			}})
		}
		cfg := harness.Config{Workers: workers, Progress: func(_, _ int, tr harness.Trial, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			labels[tr.Label]++
		}}
		results := sweep(cfg, "grid", rows, kinds, trials, baseSeed)

		if len(results) != nRows {
			t.Fatalf("workers=%d: %d result rows, want %d", workers, len(results), nRows)
		}
		for r, row := range results {
			if len(row) != len(kinds)*trials {
				t.Fatalf("workers=%d: row %d has %d results, want %d", workers, r, len(row), len(kinds)*trials)
			}
			for i, got := range row {
				k, tr := i/trials, i%trials
				want := sweepCall{r, k, harness.TrialSeed(baseSeed, kinds[k].seedIndex, tr)}
				if got != want {
					t.Errorf("workers=%d: results[%d][%d] = %+v, want %+v", workers, r, i, got, want)
				}
			}
		}
		total := nRows * len(kinds) * trials
		if len(ran) != total || len(labels) != total {
			t.Fatalf("workers=%d: %d distinct trials ran under %d distinct labels, want %d each",
				workers, len(ran), len(labels), total)
		}
		for c, n := range ran {
			if n != 1 {
				t.Errorf("workers=%d: trial %+v ran %d times", workers, c, n)
			}
		}
		for l, n := range labels {
			if n != 1 || !strings.HasPrefix(l, "grid/") {
				t.Errorf("workers=%d: label %q reported %d times", workers, l, n)
			}
		}
	}
}

// A panicking trial must surface from sweep as the harness's joined
// *harness.TrialError, naming the trial that died.
func TestSweepRepanicsTrialError(t *testing.T) {
	rows := []sweepRow[int]{{"only", func(k int, _ int64) int {
		if k == 1 {
			panic("boom")
		}
		return k
	}}}
	defer func() {
		err, _ := recover().(error)
		var te *harness.TrialError
		if !errors.As(err, &te) {
			t.Fatalf("sweep panicked with %v, want a *harness.TrialError", err)
		}
		if te.Trial.Label != "dead/only/b/t0" || fmt.Sprint(te.Recovered) != "boom" {
			t.Errorf("TrialError names %q (%v), want dead/only/b/t0 (boom)", te.Trial.Label, te.Recovered)
		}
	}()
	sweep(harness.Config{Workers: 2}, "dead", rows, []sweepKind{{0, "a"}, {1, "b"}}, 1, 0)
	t.Fatal("sweep returned despite a dead trial")
}

// harness.TrialSeed strides kinds by 1000, so a 1000th trial would run on
// the next kind's trial-0 seed. sweep owns the derivation and refuses;
// mars-bench checks its -trials flag with the same function.
func TestSweepRejectsAliasingTrialCounts(t *testing.T) {
	if err := CheckTrials(harness.KindStride - 1); err != nil {
		t.Errorf("CheckTrials(%d) = %v, want nil", harness.KindStride-1, err)
	}
	err := CheckTrials(harness.KindStride)
	if err == nil || !strings.Contains(err.Error(), "999") {
		t.Fatalf("CheckTrials(%d) = %v, want an error naming the limit 999", harness.KindStride, err)
	}
	ran := 0
	rows := []sweepRow[int]{{"r", func(int, int64) int { ran++; return 0 }}}
	defer func() {
		if r := recover(); r == nil || ran != 0 {
			t.Fatalf("sweep with %d trials: recovered %v after running %d trials, want a refusal before any ran",
				harness.KindStride, r, ran)
		}
	}()
	sweep(harness.Config{Workers: 1}, "alias", rows, []sweepKind{{0, "a"}, {1, "b"}}, harness.KindStride, 0)
}
