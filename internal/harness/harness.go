// Package harness is the deterministic parallel trial engine under every
// experiment driver. Its caller (experiments.sweep, the one place a trial
// matrix is enumerated) declares the matrix as a flat, ordered slice of
// Trials, hands the engine a pure per-trial function, and gets results
// back indexed exactly like the input — regardless of how many workers
// executed them or in what real-time order they finished. Three properties
// are load-bearing:
//
//   - Determinism: each trial is a pure function of its Trial value (all
//     randomness flows from Trial.Seed, derived by TrialSeed), results are
//     stored at the trial's index, and drivers aggregate by iterating
//     slices of that in order. Output is therefore byte-identical for any
//     worker count.
//   - Bounded parallelism: at most Config.Workers trials run at once
//     (default runtime.GOMAXPROCS(0)).
//   - Panic containment: a panicking trial is recovered into a typed
//     *TrialError naming the trial, instead of killing the process from a
//     worker goroutine; the remaining trials still complete.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Trial is one unit of work in a trial matrix. Index is the trial's
// position in the driver's deterministic enumeration (and aggregation)
// order; Seed is the substrate seed TrialSeed derived for it; Label is
// a human-readable tag for progress reporting.
type Trial struct {
	Index int
	Seed  int64
	Label string
}

// Progress observes trial completions. done is the number of finished
// trials at the moment this trial completed (unique per call, 1..total,
// but calls may arrive out of done-order when workers race to report);
// elapsed is the trial's wall-clock execution time. Implementations must
// be safe for concurrent use; progress output must never feed back into
// experiment results (it is the one place wall-clock time is allowed).
type Progress func(done, total int, t Trial, elapsed time.Duration)

// Config tunes the engine.
type Config struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, if non-nil, is called once per completed trial.
	Progress Progress
}

// TrialError is a panic recovered from one trial, with the trial identity
// and the panicking goroutine's stack.
type TrialError struct {
	Trial     Trial
	Recovered any
	Stack     []byte
}

func (e *TrialError) Error() string {
	return fmt.Sprintf("trial %d (%s, seed %d) panicked: %v\n%s",
		e.Trial.Index, e.Trial.Label, e.Trial.Seed, e.Recovered, e.Stack)
}

// collector owns the engine's cross-goroutine state. Workers write through
// put; Run reads the final state through finish after the pool has drained.
type collector[T any] struct {
	mu sync.Mutex
	// results[i] holds trial i's outcome; guarded by mu.
	results []T
	// errs[i] holds trial i's recovered panic (*TrialError), else nil;
	// guarded by mu.
	errs []error
	// done counts completed trials; guarded by mu.
	done int
}

// put records trial i's outcome and returns the completion count.
func (c *collector[T]) put(i int, v T, err error) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[i] = v
	c.errs[i] = err
	c.done++
	return c.done
}

// finish returns the results slice and the trial errors joined in trial
// order. Callers must not invoke it before every worker has exited.
func (c *collector[T]) finish() ([]T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var failed []error
	for _, err := range c.errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	return c.results, errors.Join(failed...)
}

// Run executes fn over every trial on a bounded worker pool and returns
// the results indexed identically to trials. fn must be self-contained:
// it may not share mutable state across trials (each trial builds its own
// substrate from Trial.Seed). The returned error joins one *TrialError per
// panicked trial, in trial order; the corresponding result slots hold T's
// zero value.
func Run[T any](cfg Config, trials []Trial, fn func(Trial) T) ([]T, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(trials) {
		workers = len(trials)
	}
	c := &collector[T]{
		results: make([]T, len(trials)),
		errs:    make([]error, len(trials)),
	}
	if len(trials) == 0 {
		return c.results, nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//mars:sync workers drain one shared index channel and write into pre-indexed result slots; output is byte-identical at any worker count (the tests diff workers=1 against workers=8)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(cfg, c, trials[i], i, len(trials), fn)
			}
		}()
	}
	for i := range trials {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return c.finish()
}

// runOne executes a single trial, converting a panic into a *TrialError
// stored at the trial's slot so the pool survives bad trials.
func runOne[T any](cfg Config, c *collector[T], t Trial, i, total int, fn func(Trial) T) {
	start := time.Now() //mars:wallclock per-trial timing hook for operator progress, never part of results
	var (
		v   T
		err error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = &TrialError{Trial: t, Recovered: r, Stack: debug.Stack()}
			}
		}()
		v = fn(t)
	}()
	done := c.put(i, v, err)
	if cfg.Progress != nil {
		cfg.Progress(done, total, t, time.Since(start)) //mars:wallclock per-trial timing hook for operator progress, never part of results
	}
}
