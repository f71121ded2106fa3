// Package mars is a Go reproduction of "MARS: Fault Localization in
// Programmable Networking Systems with Low-cost In-Band Network Telemetry"
// (ICPP 2023): path-aware on-demand telemetry, self-adaptive in-network
// anomaly detection, and automatic multi-level root cause analysis, built
// on a deterministic discrete-event network simulator.
//
// The package wires the full stack — fat-tree topology, ECMP forwarding,
// the MARS P4-equivalent switch program, the controller with per-flow
// reservoirs, and the FSM+SBFL analyzer — behind one System type:
//
//	sc := mars.DefaultScenario(1, mars.FaultDelay)
//	sys, _ := mars.NewSystem(sc.Config())
//	sys.StartBackground(sc.Flows, sc.RatePPS)
//	gt := sys.InjectFault(sc.Fault, sc.FaultStart, sc.FaultDur)
//	sys.Run(sc.RunFor)
//	for i, c := range sys.Culprits() {
//		fmt.Printf("#%d %v (located: %v)\n", i+1, c, mars.Locates(c, gt))
//	}
//
// The subsystems live in internal/ packages; this package re-exports the
// identifiers a caller needs.
package mars

import (
	"fmt"

	"mars/internal/controlplane"
	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/faults"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
	"mars/internal/telemetry"
	"mars/internal/topology"
	"mars/internal/workload"
)

// Time re-exports the simulator's nanosecond clock.
type Time = netsim.Time

// Time unit constants.
const (
	Nanosecond  = netsim.Nanosecond
	Microsecond = netsim.Microsecond
	Millisecond = netsim.Millisecond
	Second      = netsim.Second
)

// FaultKind selects one of the paper's five fault scenarios.
type FaultKind = faults.Kind

// The five fault scenarios of §5.2, plus the control-channel degradation
// scenario this repository adds.
const (
	FaultMicroBurst  = faults.MicroBurst
	FaultECMP        = faults.ECMPImbalance
	FaultProcessRate = faults.ProcessRateDecrease
	FaultDelay       = faults.Delay
	FaultDrop        = faults.Drop
	FaultCtrlChan    = faults.CtrlChanDegrade
)

// The gray-failure scenario family: partial, intermittent, and correlated
// faults outside the paper's Table 1 (see `mars-bench -exp gray`).
const (
	FaultSilentDrop    = faults.SilentDrop
	FaultLinkFlap      = faults.LinkFlap
	FaultLinkDown      = faults.LinkDown
	FaultSwitchReboot  = faults.SwitchReboot
	FaultUplinkDegrade = faults.UplinkDegrade
)

// Injection is one timed fault inside a Schedule.
type Injection = faults.Injection

// Schedule is a declarative list of timed, possibly overlapping fault
// injections applied as one episode.
type Schedule = faults.Schedule

// Episode is the ground truth of an applied Schedule: every injected
// fault with its causal links and lifecycle handles.
type Episode = faults.Episode

// Fault is one episode entry: a ground truth plus its causal parent.
type Fault = faults.Fault

// Culprit is one entry of the ranked diagnosis output.
type Culprit = rca.Culprit

// FlowID is MARS's ⟨source switch, sink switch⟩ flow identity.
type FlowID = dataplane.FlowID

// GroundTruth describes an injected fault.
type GroundTruth = faults.GroundTruth

// Diagnosis is one on-demand telemetry collection.
type Diagnosis = controlplane.Diagnosis

// Config assembles a complete MARS deployment on a simulated fat-tree.
type Config struct {
	// FatTreeK is the fat-tree arity (even, >= 2). Default 4, the paper's
	// Mininet topology.
	FatTreeK int
	// Seed drives all randomness (workload, faults, reservoirs).
	Seed int64
	// Sim sets the physical network parameters.
	Sim netsim.Config
	// Program configures the switch pipeline: the PathID hash (NewSystem
	// widens its field until the fabric's path set fits) and the
	// notification window. The telemetry epoch, ring size and drop
	// trigger are dataplane constants.
	Program dataplane.Config
	// Controller configures threshold refresh, diagnosis windows and the
	// request retry budget.
	Controller controlplane.Config
	// CtrlChan configures the controller↔switch control channel. The
	// zero value is a perfect channel (synchronous, lossless), matching
	// the paper's idealized evaluation setup.
	CtrlChan ctrlchan.Config
	// RCA configures the analyzer's miner, support floor, scorer and the
	// compound-cause switch; the signature thresholds are rca constants
	// (DESIGN.md §16).
	RCA rca.Config
	// Codec selects the telemetry encoding by name (internal/telemetry).
	// "" is "mars11", the paper's fixed 11-byte header; "perhop",
	// "pintlike", and "sampled" trade bytes/packet against reconstruction
	// fidelity (see `mars-bench -exp overhead`). NewSystem builds the one
	// codec value this names into both Program.Codec and Controller.Codec,
	// replacing whatever either field held.
	Codec string
}

// DefaultConfig mirrors the evaluation setup: K=4 fat-tree at
// software-switch scale, 100 ms telemetry epochs, 8-bit CRC16 PathIDs.
func DefaultConfig() Config {
	return Config{
		FatTreeK: 4,
		Seed:     1,
		Sim: netsim.Config{
			LinkBandwidthBps:     14_000_000,
			HostLinkBandwidthBps: 100_000_000,
			PropDelay:            10 * netsim.Microsecond,
			SwitchProcDelay:      5 * netsim.Microsecond,
			QueueCapacity:        128,
		},
		Program:    dataplane.DefaultProgramConfig(),
		Controller: controlplane.DefaultConfig(),
		RCA:        rca.DefaultConfig(),
	}
}

// Scenario is the paper's evaluation trial (§5, Table 1): a K-ary
// fat-tree, a background mesh of Flows flows at RatePPS each, one fault
// from FaultStart for FaultDur, a run of RunFor. Trials and the deployment
// embed it; in JSON the fault is written by name ("silent-drop").
type Scenario struct {
	K          int       `json:"k"`
	Seed       int64     `json:"seed"`
	Flows      int       `json:"flows"`
	RatePPS    float64   `json:"rate_pps"`
	Fault      FaultKind `json:"fault"`
	FaultStart Time      `json:"fault_start"`
	FaultDur   Time      `json:"fault_dur"`
	RunFor     Time      `json:"run_for"`
}

// DefaultScenario sizes a trial so the five fault signatures are
// observable at software-switch scale: links fit ~2500 pps of mixed
// traffic, the background sits near 50 % on the fat-tree uplinks, and the
// fault runs for 1.5 s after a 2 s warm-up.
func DefaultScenario(seed int64, kind FaultKind) Scenario {
	return Scenario{
		K:          4,
		Seed:       seed,
		Flows:      96,
		RatePPS:    220,
		Fault:      kind,
		FaultStart: 2 * Second,
		FaultDur:   1500 * Millisecond,
		RunFor:     4 * Second,
	}
}

// ScenarioError is a Scenario value that Check rejects; Field is its JSON
// key.
type ScenarioError struct {
	Field string
	Msg   string
}

func (e *ScenarioError) Error() string { return fmt.Sprintf("scenario %q %s", e.Field, e.Msg) }

// Check rejects the background values the mesh cannot install: a negative
// flow count, and flows with no positive rate. A *ScenarioError names the
// field.
func (sc Scenario) Check() error {
	switch {
	case sc.Flows < 0:
		return &ScenarioError{"flows", fmt.Sprintf("must not be negative, got %d", sc.Flows)}
	case sc.Flows > 0 && sc.RatePPS <= 0:
		return &ScenarioError{"rate_pps", fmt.Sprintf("must be positive with %d flows, got %v", sc.Flows, sc.RatePPS)}
	}
	return nil
}

// Config is DefaultConfig on the scenario's fat-tree and seed.
func (sc Scenario) Config() Config {
	cfg := DefaultConfig()
	cfg.FatTreeK = sc.K
	cfg.Seed = sc.Seed
	return cfg
}

// System is a running MARS deployment: simulator, data plane, controller,
// and analyzer, plus accumulated diagnosis results.
type System struct {
	cfg Config

	FT         *topology.FatTree
	Sim        *netsim.Simulator
	Router     *netsim.ECMPRouter
	Program    *dataplane.Program
	Controller *controlplane.Controller
	CtrlChan   *ctrlchan.Channel
	Analyzer   *rca.Analyzer
	Paths      *pathid.Table

	injector *faults.Injector
	merged   rca.Merger
	// Diagnoses collects every on-demand collection for inspection.
	Diagnoses []Diagnosis
	// OnDiagnosis, if set, observes each diagnosis as it happens.
	OnDiagnosis func(Diagnosis, []Culprit)
}

// NewSystem builds and wires a full deployment.
func NewSystem(cfg Config) (*System, error) {
	ft, err := topology.NewFatTree(cfg.FatTreeK)
	if err != nil {
		return nil, fmt.Errorf("mars: %w", err)
	}
	// The PathID field is as narrow as the path set allows: k=4 fits the
	// paper's 8 bits, larger fabrics widen.
	table, err := pathid.BuildWidening(cfg.Program.PathCfg, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		return nil, fmt.Errorf("mars: building PathID table: %w", err)
	}
	cfg.Program.PathCfg = table.Cfg
	ccfg := cfg.Controller
	ccfg.Seed = cfg.Seed
	if cfg.Codec == "" {
		cfg.Codec = "mars11"
	}
	cdc, err := telemetry.New(cfg.Codec, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("mars: %w", err)
	}
	cfg.Program.Codec = cdc
	ccfg.Codec = cdc
	prog := dataplane.New(cfg.Program, ft.Topology, table, nil)
	router := netsim.NewECMPRouter(ft.Topology, uint64(cfg.Seed))
	sim := netsim.New(ft.Topology, router, prog, cfg.Sim, cfg.Seed)
	chcfg := cfg.CtrlChan
	if chcfg.Seed == 0 {
		chcfg.Seed = cfg.Seed
	}
	ch := ctrlchan.New(sim, chcfg)
	ctrl := controlplane.New(ccfg, sim, ft.Topology, ch)
	agent := controlplane.NewAgent(&controlplane.LiveRegisters{Program: prog}, ch, &ctrl.Bytes, ctrl.Deliver)
	ctrl.ToSwitch = agent.Deliver
	prog.Notifier = agent
	ctrl.Start()

	s := &System{
		cfg: cfg, FT: ft, Sim: sim, Router: router,
		Program: prog, Controller: ctrl, CtrlChan: ch, Paths: table,
		injector: faults.NewInjector(sim, ft, router),
	}
	s.injector.Chan = ch
	s.injector.Registers = prog
	s.Analyzer = rca.New(cfg.RCA, table, ctrl)
	ctrl.OnDiagnosis = func(d controlplane.Diagnosis) {
		s.Diagnoses = append(s.Diagnoses, d)
		list := s.Analyzer.Analyze(d)
		s.merged.Add(list)
		if s.OnDiagnosis != nil {
			s.OnDiagnosis(d, list)
		}
	}
	return s, nil
}

// StartBackground installs the background mesh (InstallBackground).
func (s *System) StartBackground(numFlows int, ratePPS float64) {
	InstallBackground(s.Sim, s.FT, numFlows, ratePPS)
}

// InstallBackground installs a balanced cross-pod background mesh of
// numFlows flows at ratePPS each, running for the whole simulation: the
// one background of MARS systems, the baselines and the figure sims.
func InstallBackground(sim *netsim.Simulator, ft *topology.FatTree, numFlows int, ratePPS float64) {
	workload.RandomBackground(sim, ft, workload.BackgroundConfig{
		NumFlows:      numFlows,
		RatePPS:       ratePPS,
		RateJitter:    0.2,
		Gaps:          workload.GapExponential,
		CrossPodBias:  1.0,
		RoundRobinSrc: true,
		RoundRobinDst: true,
	}, 1)
}

// InjectFault schedules one of the five fault scenarios and returns its
// ground truth (for validation and experiments).
func (s *System) InjectFault(kind FaultKind, start, dur Time) GroundTruth {
	return s.injector.Inject(kind, start, dur)
}

// InjectSchedule applies a declarative fault schedule — multiple timed,
// possibly overlapping injections — and returns the episode ground truth.
// Each injection draws from its own seeded RNG, so adding or removing
// entries never perturbs the targets of the others.
func (s *System) InjectSchedule(sched Schedule) *Episode {
	s.injector.ScheduleSeed = s.cfg.Seed
	return s.injector.Apply(sched)
}

// Run advances the simulation to the given time.
func (s *System) Run(until Time) { s.Sim.Run(until) }

// Culprits returns the merged, ranked culprit list accumulated across all
// diagnoses so far: the "every diagnosis merged" fold. Table 1 folds only
// diagnoses completed at or after FaultStart (experiments.marsRun).
func (s *System) Culprits() []Culprit {
	return s.merged.Ranked()
}

// Locates is Table 1's match rule: a micro-burst is located by naming the
// offending flow, an ECMP imbalance by an ECMP culprit at the skewed
// switch, every other fault by a non-flow culprit that contains the faulty
// switch. Cause labels are scored separately (the cause-accuracy ablation).
func Locates(c Culprit, gt GroundTruth) bool {
	if gt.Kind == FaultMicroBurst {
		return c.Level == rca.LevelFlow && c.Flow == FlowID{Src: gt.BurstSrcEdge, Sink: gt.BurstSinkEdge}
	}
	if gt.Kind == FaultECMP && c.Cause == rca.CauseECMPImbalance {
		return c.ContainsSwitch(gt.Switch)
	}
	return c.Level != rca.LevelFlow && c.ContainsSwitch(gt.Switch)
}

// ThresholdOf exposes the controller's current dynamic threshold for a
// flow (for inspection and examples).
func (s *System) ThresholdOf(flow FlowID) Time {
	return s.Controller.ThresholdOf(flow)
}

// TelemetryOverheadBytes returns the in-band header bytes added to links.
func (s *System) TelemetryOverheadBytes() int64 {
	return s.Program.Stats.TelemetryLinkBytes
}

// DiagnosisOverheadBytes returns control-channel bytes (notifications,
// collections, refreshes, threshold pushes).
func (s *System) DiagnosisOverheadBytes() int64 {
	b := s.Controller.Bytes
	return b.DiagnosisBytes() + b.RefreshBytes + b.ThresholdPushBytes
}
