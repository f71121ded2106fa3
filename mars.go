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
//	sys, _ := mars.NewSystem(mars.DefaultConfig())
//	sys.StartBackground(96, 220)
//	gt := sys.InjectFault(mars.FaultDelay, 2*mars.Second, 1500*mars.Millisecond)
//	sys.Run(4 * mars.Second)
//	for i, c := range sys.Culprits() {
//		fmt.Printf("#%d %v\n", i+1, c)
//	}
//	_ = gt
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

// StartBackground installs a balanced cross-pod background mesh of
// numFlows flows at ratePPS each, running for the whole simulation.
func (s *System) StartBackground(numFlows int, ratePPS float64) {
	workload.RandomBackground(s.Sim, s.FT, workload.BackgroundConfig{
		NumFlows:      numFlows,
		RatePPS:       ratePPS,
		RateJitter:    0.2,
		Gaps:          workload.GapExponential,
		Start:         0,
		Stop:          0, // run forever
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
// diagnoses so far.
func (s *System) Culprits() []Culprit {
	return s.merged.Ranked()
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
