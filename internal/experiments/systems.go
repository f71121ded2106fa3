package experiments

import (
	"mars"
	"mars/internal/baselines/intsight"
	"mars/internal/baselines/spidermon"
	"mars/internal/baselines/syndb"
	"mars/internal/controlplane"
	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/faults"
	"mars/internal/harness"
	"mars/internal/netsim"
	"mars/internal/rca"
	"mars/internal/topology"
)

// Substrate is the bare simulation stack under everything that is not a
// mars.System: one fat-tree, one ECMP router, one classic simulator. The
// baselines and the hand-instrumented figure sims share it.
type Substrate struct {
	FT     *topology.FatTree
	Router *netsim.ECMPRouter
	Sim    *netsim.Simulator
}

// newFatTree builds the trial's topology, panicking on a malformed K (the
// harness recovers trial panics into typed errors).
func newFatTree(tc TrialConfig) *topology.FatTree {
	ft, err := topology.NewFatTree(tc.K)
	if err != nil {
		panic(err)
	}
	return ft
}

// newSubstrate wires the router and simulator around the topology with the
// trial's physical configuration and seed.
func newSubstrate(tc TrialConfig, ft *topology.FatTree, hooks netsim.Hooks) *Substrate {
	router := netsim.NewECMPRouter(ft.Topology, uint64(tc.Seed))
	cfg := mars.DefaultConfig().Sim
	if tc.SimCfg != nil {
		cfg = *tc.SimCfg
	}
	sim := netsim.New(ft.Topology, router, hooks, cfg, tc.Seed)
	return &Substrate{FT: ft, Router: router, Sim: sim}
}

// --- MARS -----------------------------------------------------------------

// marsConfig maps a trial onto the public facade's configuration: MARS
// trials are mars.System runs, so the numbers in EXPERIMENTS.md and the
// API users call are built by the same code. mutateRCA (may be nil) edits
// the analyzer config for the ablations and the gray modes.
func marsConfig(tc TrialConfig, mutateRCA func(*rca.Config)) mars.Config {
	cfg := mars.DefaultConfig()
	cfg.FatTreeK = tc.K
	cfg.Seed = tc.Seed
	if tc.SimCfg != nil {
		cfg.Sim = *tc.SimCfg
	}
	cfg.Codec = tc.Codec
	ctrlSeed := harness.CtrlChanSeed(tc.Seed)
	cfg.CtrlChan = ctrlchan.Config{Seed: ctrlSeed}
	if tc.CtrlLossy {
		cfg.CtrlChan = ctrlchan.Lossy(tc.CtrlLoss, ctrlSeed)
	}
	if tc.CtrlNoRetry {
		cfg.Controller.MaxRetries = 0
	}
	if mutateRCA != nil {
		mutateRCA(&cfg.RCA)
	}
	return cfg
}

// marsRun is one MARS deployment under the trial drivers' diagnosis
// policy: diagnoses completed before FaultStart count as false alarms and
// are not analyzed (they are 2–4 of a trial's 6–8 collections, so the
// facade's analyze-everything default would add ~60% RCA work and let
// pre-fault noise into the ranking).
type marsRun struct {
	sys         *mars.System
	merged      rca.Merger
	detected    bool
	firstDiag   netsim.Time
	diagnoses   int64
	partial     int64
	falseAlarms int64
}

// startMARS builds the deployment through mars.NewSystem, installs the
// trial's diagnosis policy on the controller, and starts the workload. The
// caller injects its fault (or schedule) and runs the simulation.
func startMARS(tc TrialConfig, mutateRCA func(*rca.Config)) *marsRun {
	sys, err := mars.NewSystem(marsConfig(tc, mutateRCA))
	if err != nil {
		panic(err)
	}
	m := &marsRun{sys: sys}
	sys.Controller.OnDiagnosis = func(d controlplane.Diagnosis) {
		if d.Time < tc.FaultStart {
			m.falseAlarms++
			return
		}
		if !m.detected {
			m.detected = true
			m.firstDiag = d.Time - tc.FaultStart
		}
		m.diagnoses++
		if d.Partial() {
			m.partial++
		}
		m.merged.Add(sys.Analyzer.Analyze(d))
	}
	installWorkload(tc, sys.Sim, sys.FT)
	return m
}

// marsTrial runs one single-fault MARS trial and scores the merged
// ranking under match (marsMatches, or marsCauseMatches for the
// cause-accuracy ablation).
func marsTrial(tc TrialConfig, mutateRCA func(*rca.Config), match func(rca.Culprit, faults.GroundTruth) bool) TrialResult {
	m := startMARS(tc, mutateRCA)
	gt := m.sys.InjectFault(tc.Fault, tc.FaultStart, tc.FaultDur)
	m.sys.Run(tc.Total)
	return TrialResult{
		System: SysMARS, GT: recordGT(gt), Rank: rankWhere(m.merged.Ranked(), gt, match),
		Detected:       m.detected,
		TelemetryBytes: m.sys.TelemetryOverheadBytes(),
		DiagnosisBytes: m.sys.DiagnosisOverheadBytes(),
		TotalLinkBytes: sumLinkBytes(m.sys.Sim.Stats.LinkBytes),
		DiagLatency:    m.firstDiag, DiagDetected: m.detected,
		Diagnoses: m.diagnoses, PartialDiagnoses: m.partial,
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
	score func(tc TrialConfig, gt faults.GroundTruth) TrialResult
}

func newSpiderMon(ft *topology.FatTree) baseline {
	s := spidermon.New(ft.Topology)
	return baseline{s, func(_ TrialConfig, gt faults.GroundTruth) TrialResult {
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
	return baseline{s, func(_ TrialConfig, gt faults.GroundTruth) TrialResult {
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
	return baseline{s, func(tc TrialConfig, gt faults.GroundTruth) TrialResult {
		rank := 0
		for i, c := range s.Localize(syndbQuery(tc.Fault)) {
			if switchOrFlowMatches(c.Switch, c.FlowID, gt) {
				rank = i + 1
				break
			}
		}
		return TrialResult{Rank: rank, Detected: true, // always-on capture
			TelemetryBytes: s.TelemetryBytes, DiagnosisBytes: s.DiagnosisBytes}
	}}
}

// runBaselineTrial runs one baseline over the shared substrate: build the
// system's hooks against the topology, run the workload and fault, score.
func runBaselineTrial(kind SystemKind, tc TrialConfig, mk func(*topology.FatTree) baseline) TrialResult {
	ft := newFatTree(tc)
	b := mk(ft)
	sub := newSubstrate(tc, ft, b.hooks)
	inj := faults.NewInjector(sub.Sim, ft, sub.Router)
	installWorkload(tc, sub.Sim, ft)
	gt := inj.Inject(tc.Fault, tc.FaultStart, tc.FaultDur)
	sub.Sim.Run(tc.Total)
	res := b.score(tc, gt)
	res.System, res.GT, res.TotalLinkBytes = kind, recordGT(gt), sumLinkBytes(sub.Sim.Stats.LinkBytes)
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
