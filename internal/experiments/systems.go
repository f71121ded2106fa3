package experiments

import (
	"mars"
	"mars/internal/baselines/intsight"
	"mars/internal/baselines/spidermon"
	"mars/internal/baselines/syndb"
	"mars/internal/dataplane"
	"mars/internal/faults"
	"mars/internal/harness"
	"mars/internal/netsim"
	"mars/internal/rca"
	"mars/internal/topology"
)

// newFatTree builds a trial's topology, panicking on a malformed K (the
// harness recovers trial panics into typed errors).
func newFatTree(k int) *topology.FatTree {
	ft, err := topology.NewFatTree(k)
	if err != nil {
		panic(err)
	}
	return ft
}

// newSubstrate is the bare simulation stack under everything that is not
// a mars.System (the baselines and the hand-instrumented figure sims): one
// ECMP router and one classic simulator around ft, seeded like a
// mars.System's.
func newSubstrate(ft *topology.FatTree, seed int64, cfg netsim.Config, hooks netsim.Hooks) (*netsim.ECMPRouter, *netsim.Simulator) {
	router := netsim.NewECMPRouter(ft.Topology, uint64(seed))
	return router, netsim.New(ft.Topology, router, hooks, cfg, seed)
}

// --- MARS -----------------------------------------------------------------

// marsConfig is a MARS trial's deployment: the scenario's mars.Config on
// the trial's control-channel seed, then edit (may be nil), the driver's
// one change to a field (the channel's loss model and retry budget, the
// codec, the analyzer). MARS trials are mars.System runs, so the numbers
// in EXPERIMENTS.md and the API users call are built by the same code.
func marsConfig(sc mars.Scenario, edit func(*mars.Config)) mars.Config {
	cfg := sc.Config()
	cfg.CtrlChan.Seed = harness.CtrlChanSeed(sc.Seed)
	if edit != nil {
		edit(&cfg)
	}
	return cfg
}

// marsRun is one MARS deployment under the trial drivers' diagnosis
// policy, the oracle fold: only diagnoses completed at or after FaultStart
// are merged; earlier ones count as false alarms (2–4 of a trial's 6–8
// collections). mars.System.Culprits() is the other fold, every diagnosis
// merged, which bench's trial_k4 and the deployment score.
type marsRun struct {
	sys         *mars.System
	merged      rca.Merger
	detected    bool
	firstDiag   netsim.Time
	diagnoses   int64
	partial     int64
	falseAlarms int64
}

// startMARS builds the deployment through mars.NewSystem, folds its
// analysed diagnoses through System.OnDiagnosis, and starts the
// background. The caller injects its fault (or schedule) and runs the
// simulation.
func startMARS(sc mars.Scenario, edit func(*mars.Config)) *marsRun {
	sys, err := mars.NewSystem(marsConfig(sc, edit))
	if err != nil {
		panic(err)
	}
	m := &marsRun{sys: sys}
	sys.OnDiagnosis = func(d mars.Diagnosis, list []mars.Culprit) {
		if d.Time < sc.FaultStart {
			m.falseAlarms++
			return
		}
		if !m.detected {
			m.detected = true
			m.firstDiag = d.Time - sc.FaultStart
		}
		m.diagnoses++
		if d.Partial() {
			m.partial++
		}
		m.merged.Add(list)
	}
	sys.StartBackground(sc.Flows, sc.RatePPS)
	return m
}

// marsTrial runs one single-fault MARS trial on marsConfig(sc, edit) and
// scores the merged ranking under match (mars.Locates, or
// marsCauseMatches for the cause-accuracy ablation).
func marsTrial(sc mars.Scenario, edit func(*mars.Config), match func(rca.Culprit, faults.GroundTruth) bool) TrialResult {
	m := startMARS(sc, edit)
	gt := m.sys.InjectFault(sc.Fault, sc.FaultStart, sc.FaultDur)
	m.sys.Run(sc.RunFor)
	return TrialResult{
		System: SysMARS, GT: recordGT(gt), Rank: rankWhere(m.merged.Ranked(), gt, match),
		Detected:       m.detected,
		TelemetryBytes: m.sys.TelemetryOverheadBytes(),
		DiagnosisBytes: m.sys.DiagnosisOverheadBytes(),
		TotalLinkBytes: sumLinkBytes(m.sys.Sim.Stats.LinkBytes),
		DiagLatency:    m.firstDiag,
		Diagnoses:      m.diagnoses, PartialDiagnoses: m.partial,
		Packets:          m.sys.Sim.Stats.Sent,
		TelemetryPackets: m.sys.Program.Stats.TelemetryPackets,
		FalseAlarms:      m.falseAlarms,
	}
}

// --- Baselines --------------------------------------------------------------

// baseline is one compared system wired into a trial: the data-plane hooks
// the simulator installs, and score, which ranks the finished run against
// the ground truth and fills the system's own result fields (rank,
// detection, byte counters). Baselines carry per-trial state, so a fresh
// value is built for every trial.
type baseline struct {
	hooks netsim.Hooks
	score func(sc mars.Scenario, gt faults.GroundTruth) TrialResult
}

func newSpiderMon(ft *topology.FatTree) baseline {
	s := spidermon.New(ft.Topology)
	return baseline{s, func(_ mars.Scenario, gt faults.GroundTruth) TrialResult {
		rank := 0
		for i, c := range s.Localize() {
			if baselineMatches(c.Switches, c.FlowID, true, gt) {
				rank = i + 1
				break
			}
		}
		return TrialResult{Rank: rank, Detected: s.Detected(),
			TelemetryBytes: s.TelemetryBytes, DiagnosisBytes: s.DiagnosisBytes}
	}}
}

func newIntSight(ft *topology.FatTree) baseline {
	s := intsight.New(ft.Topology)
	return baseline{s, func(_ mars.Scenario, gt faults.GroundTruth) TrialResult {
		rank := 0
		for i, c := range s.Localize() {
			if switchOrFlowMatches(c.Switch, c.FlowID, gt) {
				rank = i + 1
				break
			}
		}
		return TrialResult{Rank: rank, Detected: s.Detected(),
			TelemetryBytes: s.TelemetryBytes, DiagnosisBytes: s.DiagnosisBytes}
	}}
}

func newSyNDB(ft *topology.FatTree) baseline {
	s := syndb.New(ft.Topology)
	return baseline{s, func(sc mars.Scenario, gt faults.GroundTruth) TrialResult {
		rank := 0
		for i, c := range s.Localize(syndbQuery(sc.Fault)) {
			if switchOrFlowMatches(c.Switch, c.FlowID, gt) {
				rank = i + 1
				break
			}
		}
		return TrialResult{Rank: rank, Detected: true, // always-on capture
			TelemetryBytes: s.TelemetryBytes, DiagnosisBytes: s.DiagnosisBytes}
	}}
}

// runBaselineTrial runs one baseline on the bare substrate: build the
// system's hooks against the topology, run the workload and fault, score.
func runBaselineTrial(kind SystemKind, sc mars.Scenario, mk func(*topology.FatTree) baseline) TrialResult {
	ft := newFatTree(sc.K)
	b := mk(ft)
	router, sim := newSubstrate(ft, sc.Seed, sc.Config().Sim, b.hooks)
	inj := faults.NewInjector(sim, ft, router)
	mars.InstallBackground(sim, ft, sc.Flows, sc.RatePPS)
	gt := inj.Inject(sc.Fault, sc.FaultStart, sc.FaultDur)
	sim.Run(sc.RunFor)
	res := b.score(sc, gt)
	res.System, res.GT, res.TotalLinkBytes = kind, recordGT(gt), sumLinkBytes(sim.Stats.LinkBytes)
	return res
}

// switchOrFlowMatches scores a culprit that names either one switch
// (sw >= 0) or, failing that, a flow.
func switchOrFlowMatches(sw topology.NodeID, flow dataplane.FlowID, gt faults.GroundTruth) bool {
	var sws []topology.NodeID
	if sw >= 0 {
		sws = []topology.NodeID{sw}
	}
	return baselineMatches(sws, flow, sw < 0, gt)
}
