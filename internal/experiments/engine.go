package experiments

import (
	"mars/internal/harness"
)

// EngineOptions configures how a trial-based driver schedules its matrix
// on the harness. The zero value reproduces the historical sequential
// drivers bit for bit: GOMAXPROCS workers (results are byte-identical for
// any worker count), shared result cache enabled.
type EngineOptions struct {
	// Workers bounds the harness worker pool (<= 0: runtime.GOMAXPROCS).
	Workers int
	// Progress receives per-trial completion callbacks (may be nil).
	Progress harness.Progress
	// DisableCache bypasses the shared (system, config) result cache.
	// Determinism tests set it so a second run re-executes trials instead
	// of echoing memoized results.
	DisableCache bool
}

func (o EngineOptions) config() harness.Config {
	return harness.Config{Workers: o.Workers, Progress: o.Progress}
}

// trialKey identifies one cacheable trial: the system plus the complete
// trial configuration (which subsumes the (system, fault, seed) key —
// fault and every seed are TrialConfig fields, so two trials share a key
// only if they are the same pure computation).
type trialKey struct {
	Sys SystemKind
	TC  TrialConfig
}

// sharedResults memoizes default-substrate trial results across drivers in
// one process, so sweeps that replay another sweep's scenarios reuse them:
// `mars-bench -exp all` runs Table 1 and then Fig. 9 over the same
// (system, fault, seed) trials, and Fig. 9 gets every result for free.
// Trials are pure functions of their key, so hits cannot change output.
var sharedResults = harness.NewCache[trialKey, TrialResult]()

// runTrial executes (or recalls) one trial according to the options.
// Trials with a custom physical config are never cached: TrialConfig holds
// *netsim.Config by pointer, so equal-content configs at distinct
// addresses would miss anyway and pin dead configs in the key.
func (o EngineOptions) runTrial(sys SystemKind, tc TrialConfig) TrialResult {
	if o.DisableCache || tc.SimCfg != nil {
		return RunTrial(sys, tc)
	}
	key := trialKey{Sys: sys, TC: tc}
	if r, ok := sharedResults.Get(key); ok {
		return r
	}
	r := RunTrial(sys, tc)
	sharedResults.Put(key, r)
	return r
}

// mustRun drives the harness over a trial list and panics on the first
// trial failure: experiment drivers have no error path to their callers,
// and a matrix with a dead trial would aggregate into meaningless numbers.
// The panic payload is the harness's joined *TrialError chain, which names
// exactly which trials died and why.
func mustRun(opts EngineOptions, trials []harness.Trial, fn func(harness.Trial) TrialResult) []TrialResult {
	results, err := harness.Run(opts.config(), trials, fn)
	if err != nil {
		panic(err)
	}
	return results
}
