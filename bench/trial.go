package main

import (
	"fmt"
	"hash/fnv"

	"mars"
	"mars/internal/controlplane"
	"mars/internal/dataplane"
	"mars/internal/deploy"
	"mars/internal/fsm"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
	"mars/internal/topology"
	traffic "mars/internal/workload"
)

// The trial workload is the Table-1 path through the public facade: a
// k=4 system, 96 background flows at 220 pps, 4 s simulated, one of the
// paper's five faults from 2 s for 1.5 s.
const (
	trialFlows    = 96
	trialRatePPS  = 220
	trialRun      = 4 * mars.Second
	trialFaultAt  = 2 * mars.Second
	trialFaultDur = 1500 * mars.Millisecond
	// trialInputs is the length of the input cycle: five fault kinds by
	// twelve seeds.
	trialInputs = 60
)

var trialKinds = []mars.FaultKind{
	mars.FaultMicroBurst, mars.FaultECMP, mars.FaultProcessRate, mars.FaultDelay, mars.FaultDrop,
}

type trialK4 struct {
	env env

	// Per-layer bookkeeping of traced operations.
	first     *mars.System       // the first traced operation's system
	counts    map[string]float64 // its exact counts
	records   []float64          // records per diagnosis, pooled
	sequences []float64          // sequences per Mine call, pooled
}

func newTrialK4(e env) instance { return &trialK4{env: e} }

func (w *trialK4) setup() (opResult, error) { return w.op(0, nil) }

// marsMatches restates the experiments package's scoring rule: a
// micro-burst is located by naming the offending flow, an ECMP imbalance
// by an ECMP culprit at the skewed switch, every other fault by a
// non-flow culprit that contains the faulty switch.
func marsMatches(c mars.Culprit, gt mars.GroundTruth) bool {
	if gt.Kind == mars.FaultMicroBurst {
		return c.Level == rca.LevelFlow && c.Flow == mars.FlowID{Src: gt.BurstSrcEdge, Sink: gt.BurstSinkEdge}
	}
	if gt.Kind == mars.FaultECMP && c.Cause == rca.CauseECMPImbalance {
		return c.ContainsSwitch(gt.Switch)
	}
	return c.Level != rca.LevelFlow && c.ContainsSwitch(gt.Switch)
}

// timedMiner is the fsm.Miner seam with a span around each call.
type timedMiner struct {
	inner fsm.Miner
	tr    *tracer
	w     *trialK4
}

func (m timedMiner) Name() string { return m.inner.Name() }

func (m timedMiner) Mine(db fsm.Dataset, p fsm.Params) []fsm.Pattern {
	sp := m.tr.begin("fsm.mine")
	out := m.inner.Mine(db, p)
	m.tr.end(sp)
	m.w.sequences = append(m.w.sequences, float64(len(db)))
	return out
}

// timedNotifier is the data plane's notification sink with a span
// around the controller's handling of each notification.
type timedNotifier struct {
	inner dataplane.Notifier
	tr    *tracer
}

func (n timedNotifier) Notify(note dataplane.Notification) {
	sp := n.tr.begin("controlplane.notify")
	n.inner.Notify(note)
	n.tr.end(sp)
}

// trialSeed derives input i's simulation seed from -seed by a splitmix64
// step. Neighbouring math/rand seeds pick correlated fault targets, so
// -seed+i would make one run's trials alike and two runs' medians differ
// by which neighbourhood they drew.
func trialSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// op is one trial: input i is fault kind i mod 5 at seed trialSeed(i).
func (w *trialK4) op(input int, tr *tracer) (opResult, error) {
	input %= trialInputs
	t0 := now()
	t, err := w.trial(trialKinds[input%len(trialKinds)], trialSeed(w.env.seed, input), tr)
	if err != nil {
		return opResult{}, err
	}
	wall := now() - t0

	sp := tr.begin("bench.check")
	defer tr.end(sp)
	sys := t.sys
	st := sys.Sim.Stats
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d", st.Sent, st.Delivered, st.Dropped)
	for _, c := range t.culprits {
		fmt.Fprintf(h, "|%s", deploy.Top1Key(c))
	}
	r := opResult{
		wall: wall, work: st.Sent, lat: t.lat,
		digest: fmt.Sprintf("%016x", h.Sum64()),
		top1Of: 1,
	}
	if len(t.culprits) > 0 && marsMatches(t.culprits[0], t.gt) {
		r.top1 = 1
	}
	if tr == nil {
		return r, nil
	}

	partial := 0
	for _, d := range sys.Diagnoses {
		w.records = append(w.records, float64(len(d.Records)))
		if d.Partial() {
			partial++
		}
	}
	if w.counts == nil {
		w.first = sys
		w.counts = map[string]float64{
			"dataplane.telemetry_pkts": float64(sys.Program.Stats.TelemetryPackets),
			"dataplane.notifications":  float64(sys.Program.Stats.Notifications),
			"dataplane.records":        float64(t.tapped),
			"controlplane.diagnoses":   float64(len(sys.Diagnoses)),
			"controlplane.partial":     float64(partial),
		}
	}
	return r, nil
}

// trialOut is what one trial leaves behind.
type trialOut struct {
	sys      *mars.System
	culprits []mars.Culprit
	gt       mars.GroundTruth
	lat      []float64 // wall of each diagnosis, ms
	tapped   int64     // sink records seen by the OnRecord tap (traced only)
}

// trial is one full MARS trial through the public facade, from
// NewSystem to the merged ranking.
func (w *trialK4) trial(kind mars.FaultKind, seed int64, tr *tracer) (*trialOut, error) {
	t := &trialOut{}
	cfg := mars.DefaultConfig()
	cfg.Seed = seed
	if tr != nil {
		cfg.RCA.Miner = timedMiner{inner: fsm.NewPrefixSpan(), tr: tr, w: w}
	}
	sp := tr.begin("mars.NewSystem")
	sys, err := mars.NewSystem(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	t.sys = sys

	// One diagnosis is the facade's whole reaction to a finished
	// collection: FSM+SBFL analysis and the merge bookkeeping.
	analyze := sys.Controller.OnDiagnosis
	sys.Controller.OnDiagnosis = func(d controlplane.Diagnosis) {
		sp := tr.begin("rca.analyze")
		a0 := now()
		analyze(d)
		t.lat = append(t.lat, ms(now()-a0))
		tr.end(sp)
	}
	if tr != nil {
		sys.Program.Notifier = timedNotifier{inner: sys.Program.Notifier, tr: tr}
		sys.Program.OnRecord = func(topology.NodeID, dataplane.RTRecord) { t.tapped++ }
	}

	sys.StartBackground(trialFlows, trialRatePPS)
	t.gt = sys.InjectFault(kind, trialFaultAt, trialFaultDur)
	sp = tr.begin("netsim.run")
	sys.Run(trialRun)
	tr.end(sp)
	sp = tr.begin("rca.merge")
	t.culprits = sys.Culprits()
	tr.end(sp)
	return t, nil
}

// k4Forward runs the trial's topology, background workload and seed on
// the classic engine with the given hooks and nothing else — no
// controller, no fault — and returns packets sent and the Run wall.
func k4Forward(seed int64, hooks func(*topology.FatTree) (netsim.Hooks, error)) (int64, float64, error) {
	cfg := mars.DefaultConfig()
	ft, err := topology.NewFatTree(cfg.FatTreeK)
	if err != nil {
		return 0, 0, err
	}
	h, err := hooks(ft)
	if err != nil {
		return 0, 0, err
	}
	sim := netsim.New(ft.Topology, netsim.NewECMPRouter(ft.Topology, uint64(seed)), h, cfg.Sim, seed)
	traffic.RandomBackground(sim, ft, traffic.BackgroundConfig{
		NumFlows: trialFlows, RatePPS: trialRatePPS, RateJitter: 0.2,
		Gaps: traffic.GapExponential, CrossPodBias: 1.0,
		RoundRobinSrc: true, RoundRobinDst: true,
	}, 1)
	t0 := now()
	sim.Run(trialRun)
	return sim.Stats.Sent, float64(now() - t0), nil
}

func (w *trialK4) layers(tr *tracer, traced []opResult) (map[string]float64, error) {
	vals := w.counts
	by := tr.byName()
	analyze, mine, notify, root := by["rca.analyze"], by["fsm.mine"], by["controlplane.notify"], by[rootName]
	diags := float64(analyze.Calls)
	if diags == 0 {
		return vals, fmt.Errorf("no diagnosis in %d traced trials", len(traced))
	}
	durs := tr.durations("rca.analyze")
	vals["rca.analyze_ms_p50"] = quantile(durs, 0.5)
	vals["rca.analyze_ms_p95"] = quantile(durs, 0.95)
	vals["rca.records_per_diag"] = mean(w.records)
	vals["rca.share_of_trial"] = float64(analyze.Total) / float64(root.Total)
	vals["fsm.mine_ms_per_diag"] = float64(mine.Total) / 1e6 / diags
	vals["fsm.sequences_per_diag"] = sum(w.sequences) / diags
	vals["controlplane.notify_self_ms_per_diag"] = float64(notify.Self) / 1e6 / diags

	// Allocation count of analysis alone: the first traced trial's
	// diagnoses replayed into a fresh analyzer over that trial's tables.
	an := rca.New(mars.DefaultConfig().RCA, w.first.Paths, w.first.Controller)
	h0 := readHeap()
	for _, d := range w.first.Diagnoses {
		an.Analyze(d)
	}
	vals["rca.allocs_per_diag"] = float64(readHeap().objects-h0.objects) / float64(len(w.first.Diagnoses))

	// The engine floor and the data plane's share by differencing: the
	// same forwarding with no-op hooks, and with the switch program but
	// no controller behind it. Best of a few of each.
	bare := func(*topology.FatTree) (netsim.Hooks, error) { return netsim.NopHooks{}, nil }
	programmed := func(ft *topology.FatTree) (netsim.Hooks, error) {
		pc := mars.DefaultConfig().Program
		table, err := pathid.BuildTable(pc.PathCfg, ft.Topology, ft.AllEdgePairPaths())
		if err != nil {
			return nil, err
		}
		return dataplane.New(pc, ft.Topology, table, nil), nil
	}
	var bareNs, progNs []float64
	for i := 0; i < w.env.sc.reps; i++ {
		sent, ns, err := k4Forward(w.env.seed, bare)
		if err != nil {
			return vals, err
		}
		bareNs = append(bareNs, ns/float64(sent))
		sent, ns, err = k4Forward(w.env.seed, programmed)
		if err != nil {
			return vals, err
		}
		progNs = append(progNs, ns/float64(sent))
	}
	vals["netsim.k4_bare_ns_per_pkt"] = quantile(bareNs, 0)
	vals["dataplane.ns_per_pkt_est"] = quantile(progNs, 0) - quantile(bareNs, 0)
	return vals, nil
}
