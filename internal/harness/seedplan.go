package harness

// The seed arithmetic every published EXPERIMENTS.md number was produced
// under, defined in exactly one place: every trial-based driver derives
// its RNG seeds from (base seed, fault-kind index, trial index) through
// these two functions.

// KindStride is the seed distance between consecutive fault-kind indices.
// Seeds are collision-free only while trial < KindStride: trial KindStride
// of kind k aliases trial 0 of kind k+1.
const KindStride = 1000

// TrialSeed returns the substrate seed (simulator, router, controller) for
// trial `trial` of fault-kind index `kind`: base + kind*KindStride + trial.
func TrialSeed(base int64, kind, trial int) int64 {
	return base + int64(kind)*KindStride + int64(trial)
}

// CtrlChanSeed derives the control-channel seed from a trial's substrate
// seed (the historical +7 offset); the channel draws from its own stream so
// degrading it never perturbs workload or fault randomness.
func CtrlChanSeed(trialSeed int64) int64 { return trialSeed + 7 }
