package harness

// The seed arithmetic every published EXPERIMENTS.md number was produced
// under, defined in exactly one place: every trial-based driver derives
// its RNG seeds from (base seed, fault-kind index, trial index) through
// these two functions.

// TrialSeed returns the substrate seed (simulator, router, controller) for
// trial `trial` of fault-kind index `kind`: base + kind*1000 + trial.
// Seeds are collision-free only while trial < 1000 (the kind stride):
// trial 1000 of kind k aliases trial 0 of kind k+1.
func TrialSeed(base int64, kind, trial int) int64 {
	return base + int64(kind)*1000 + int64(trial)
}

// CtrlChanSeed derives the control-channel seed from a trial's substrate
// seed (the historical +7 offset); the channel draws from its own stream so
// degrading it never perturbs workload or fault randomness.
func CtrlChanSeed(trialSeed int64) int64 { return trialSeed + 7 }
