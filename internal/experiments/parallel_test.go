package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
	"time"

	"mars/internal/faults"
	"mars/internal/harness"
)

// renderDigest hashes a rendered experiment table; two runs agree iff
// every cell is byte-identical.
func renderDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestTable1ParallelDeterminism runs the full Table-1 suite sequentially
// and on an oversubscribed worker pool and requires byte-identical output.
// CI runs this under -race, so any unsynchronized sharing between trial
// workers fails the build even when the digests happen to agree.
//
// The parallel run doubles as the progress-wiring check (the same path
// mars-bench -progress uses): every trial must be reported exactly once.
func TestTable1ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table-1 suites are not short")
	}
	const (
		trials   = 1
		baseSeed = 4242
	)
	seq := RunTable1With(harness.Config{Workers: 1}, trials, baseSeed).Render()

	var (
		mu sync.Mutex
		// seen counts completions per trial label; guarded by mu.
		seen = map[string]int{}
	)
	opts := harness.Config{
		Workers: 8,
		Progress: func(done, total int, tr harness.Trial, _ time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			seen[tr.Label]++
			if done < 1 || done > total {
				t.Errorf("progress done=%d outside [1,%d]", done, total)
			}
		},
	}
	par := RunTable1With(opts, trials, baseSeed).Render()

	if renderDigest(seq) != renderDigest(par) {
		t.Fatalf("workers=1 and workers=8 rendered different tables:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "overall") {
		t.Fatalf("rendered table lacks the overall rows; determinism check is vacuous:\n%s", seq)
	}

	mu.Lock()
	defer mu.Unlock()
	want := trials * len(Systems()) * len(faults.Kinds())
	if len(seen) != want {
		t.Fatalf("progress saw %d distinct trials, want %d", len(seen), want)
	}
	for label, n := range seen {
		if n != 1 {
			t.Fatalf("trial %s reported %d times, want 1", label, n)
		}
	}
}
