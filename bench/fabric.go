package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mars"
	"mars/internal/dataplane"
	"mars/internal/experiments"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
	traffic "mars/internal/workload"
)

// fabric is the streaming tier's k-ary data-plane simulation, assembled
// from public constructors the way experiments.RunStreamTrial assembles
// it (its helpers are unexported): a cross-pod mesh of two flows per
// host at 120 pps, 100 ms epochs plus one grace epoch, and a 30% silent
// drop on the first aggregation switch's edge-facing ports during the
// middle of the run. layers() proves the two fabrics equal by record
// count.
type fabric struct {
	env     env
	ft      *topology.FatTree
	part    *topology.Partition
	table   *pathid.Table
	progCfg dataplane.Config
	router  *netsim.ECMPRouter
	flows   int
	badAgg  topology.NodeID

	topoMs, pathMs float64
}

const (
	fabricRatePPS  = 120
	fabricEpoch    = 100 * netsim.Millisecond
	fabricDropProb = 0.30
)

// meshEndpoints is flow i's host pair: source host i (mod hosts),
// destination 1..K-1 pods away.
func meshEndpoints(ft *topology.FatTree, i int) (src, dst topology.NodeID) {
	hosts := ft.HostIDs
	perPod := len(hosts) / ft.K
	src = hosts[i%len(hosts)]
	dst = hosts[(i%len(hosts)+perPod*(1+i%(ft.K-1)))%len(hosts)]
	return src, dst
}

func buildFabric(e env) (*fabric, error) {
	f := &fabric{env: e}
	t0 := now()
	ft, err := topology.NewFatTree(e.sc.k)
	if err != nil {
		return nil, err
	}
	f.ft, f.part = ft, ft.PodPartition()
	f.topoMs = ms(now() - t0)
	f.flows = 2 * ft.NumHosts()
	f.badAgg = ft.AggIDs[0]

	// The path table covers exactly the edge pairs the mesh uses (all
	// pairs is infeasible at k=16), widening the ID space until the used
	// set is collision-free; 16 bits is what the wire format carries.
	t0 = now()
	seen := map[[2]topology.NodeID]bool{}
	var pairs [][2]topology.NodeID
	for i := 0; i < f.flows; i++ {
		src, dst := meshEndpoints(ft, i)
		se, _ := ft.EdgeSwitchOf(src)
		de, _ := ft.EdgeSwitchOf(dst)
		if p := [2]topology.NodeID{se, de}; se != de && !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	var paths []topology.Path
	for _, p := range pairs {
		paths = append(paths, ft.AllShortestPaths(p[0], p[1])...)
	}
	cfg := pathid.DefaultConfig()
	for {
		f.table, err = pathid.BuildTable(cfg, ft.Topology, paths)
		if err == nil {
			break
		}
		if cfg.Width >= 16 {
			return nil, err
		}
		cfg.Width += 8
	}
	f.pathMs = ms(now() - t0)

	f.progCfg = dataplane.DefaultProgramConfig()
	f.progCfg.PathCfg = f.table.Cfg
	f.router = netsim.NewECMPRouter(ft.Topology, uint64(e.seed))
	return f, nil
}

// pass is one run of the fabric: the simulated outcome (invariant under
// shard count and hooks' timing) and where the host time went.
type pass struct {
	sent, delivered, dropped int64
	events, rounds, records  int64
	telemetry, notifications int64
	agendaPeak               int
	peakBytes                int64

	runWall time.Duration // the epoch-stepped Run loop with its tap drain
	epochMs []float64     // one sample per step
}

func (p pass) digest() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", p.sent, p.delivered, p.dropped, p.events, p.records)
}

// run builds a fresh engine over the shared inputs and steps it one
// epoch at a time. programmed selects resident MARS programs with the
// OnRecord tap (otherwise netsim.NopHooks: the bare engine); onEpoch,
// if set, sees each step's tapped records per shard before the buffers
// are reused (step e == epochs is the grace epoch).
func (f *fabric) run(tr *tracer, programmed bool, shards int, onEpoch func(e int, bufs [][]dataplane.RTRecord)) pass {
	ft, sc := f.ft, f.env.sc
	if shards > f.part.NumUnits {
		shards = f.part.NumUnits
	}
	var (
		progs []*dataplane.Program
		bufs  = make([][]dataplane.RTRecord, shards)
		hooks func(int) netsim.Hooks
	)
	if programmed {
		sp := tr.begin("dataplane.new_resident")
		owned := make([][]topology.NodeID, shards)
		for _, sw := range ft.Switches() {
			s := int(f.part.UnitOf[sw]) % shards
			owned[s] = append(owned[s], sw)
		}
		progs = make([]*dataplane.Program, shards)
		for i := range progs {
			progs[i] = dataplane.NewResident(f.progCfg, ft.Topology, f.table, nil, owned[i])
			buf := &bufs[i]
			progs[i].OnRecord = func(_ topology.NodeID, rec dataplane.RTRecord) {
				*buf = append(*buf, rec)
			}
		}
		hooks = func(i int) netsim.Hooks { return progs[i] }
		tr.end(sp)
	}

	sp := tr.begin("netsim.new_sharded")
	simCfg := mars.DefaultConfig().Sim // the experiments' scaledSimConfig, by value
	sh := netsim.NewSharded(ft.Topology, f.part, f.router, hooks, simCfg, f.env.seed, netsim.ShardedConfig{Shards: shards})
	defer sh.Close()
	total := netsim.Time(sc.epochs) * fabricEpoch
	for i := 0; i < f.flows; i++ {
		src, dst := meshEndpoints(ft, i)
		fl := &traffic.Flow{
			Src: src, Dst: dst, Key: netsim.FlowKey(i + 1),
			RatePPS: fabricRatePPS,
			Gaps:    traffic.GapExponential,
			Start:   netsim.Time(i%97) * 50 * netsim.Microsecond,
			Stop:    total,
		}
		sh.OnNode(src, fl.Install)
	}
	tr.end(sp)

	// Port loss state lives on the owning shard, so the fault toggles on
	// that shard's simulator between Run steps.
	isEdge := map[topology.NodeID]bool{}
	for _, e := range ft.EdgeIDs {
		isEdge[e] = true
	}
	setDrop := func(p float64) {
		sim := sh.Shard(sh.ShardFor(f.badAgg))
		for _, nb := range ft.Topology.Neighbors(f.badAgg) {
			if !isEdge[nb] {
				continue // edge-facing ports only
			}
			if port, ok := ft.Topology.PortTo(f.badAgg, nb); ok {
				sim.SetPortDropProb(f.badAgg, port, p)
			}
		}
	}

	var p pass
	t0, probed := now(), f.env.speed.probed()
	for e := 0; e <= sc.epochs; e++ {
		f.env.speed.tick(tr)
		s0 := now()
		if uint32(e) == sc.faultStart {
			setDrop(fabricDropProb)
		}
		if uint32(e) == sc.faultStop {
			setDrop(0)
		}
		sp := tr.begin("netsim.run")
		sh.Run(netsim.Time(e+1) * fabricEpoch)
		tr.end(sp)
		sp = tr.begin("bench.drain")
		if onEpoch != nil {
			onEpoch(e, bufs)
		}
		for i := range bufs {
			p.records += int64(len(bufs[i]))
			bufs[i] = bufs[i][:0]
		}
		tr.end(sp)
		p.epochMs = append(p.epochMs, ms(now()-s0))
	}
	p.runWall = now() - t0 - (f.env.speed.probed() - probed)

	sp = tr.begin("bench.check")
	defer tr.end(sp)
	st := sh.MergedStats()
	p.sent, p.delivered, p.dropped = st.Sent, st.Delivered, st.Dropped
	for _, n := range sh.Events() {
		p.events += n
	}
	p.rounds = sh.Rounds()
	for _, m := range sh.Mem() {
		if m.AgendaPeak > p.agendaPeak {
			p.agendaPeak = m.AgendaPeak
		}
		p.peakBytes += m.PeakBytes
	}
	for _, pr := range progs {
		p.telemetry += pr.Stats.TelemetryPackets
		p.notifications += pr.Stats.Notifications
	}
	return p
}

// fabricK16 is the data-plane-only workload: netsim and dataplane do all
// the work, no controller, no RCA, no stream service.
type fabricK16 struct {
	env    env
	f      *fabric
	passes []pass // traced operations
}

func newFabricK16(e env) instance { return &fabricK16{env: e} }

func (w *fabricK16) setup() (opResult, error) {
	f, err := buildFabric(w.env)
	if err != nil {
		return opResult{}, err
	}
	w.f = f
	return w.op(0, nil)
}

func (w *fabricK16) op(_ int, tr *tracer) (opResult, error) {
	t0, probed := now(), w.env.speed.probed()
	p := w.f.run(tr, true, 1, nil)
	wall := now() - t0 - (w.env.speed.probed() - probed)
	if tr != nil {
		w.passes = append(w.passes, p)
	}
	return opResult{
		wall: wall, work: p.sent, rateWall: p.runWall,
		lat: p.epochMs, digest: p.digest(),
	}, nil
}

func (w *fabricK16) layers(tr *tracer, _ []opResult) (map[string]float64, error) {
	f, first := w.f, w.passes[0]
	var nsPerEvent, runNs []float64
	for _, p := range w.passes {
		nsPerEvent = append(nsPerEvent, float64(p.runWall)/float64(p.events))
		runNs = append(runNs, float64(p.runWall))
	}
	vals := map[string]float64{
		"topology.build_ms":        f.topoMs,
		"pathid.build_ms":          f.pathMs,
		"pathid.paths":             float64(f.table.NumPaths()),
		"netsim.events":            float64(first.events),
		"netsim.events_per_pkt":    float64(first.events) / float64(first.sent),
		"netsim.barrier_rounds":    float64(first.rounds),
		"netsim.ns_per_event":      quantile(nsPerEvent, 0.5),
		"netsim.agenda_peak":       float64(first.agendaPeak),
		"netsim.peak_kb":           float64(first.peakBytes) / 1024,
		"dataplane.telemetry_pkts": float64(first.telemetry),
		"dataplane.records":        float64(first.records),
		"dataplane.notifications":  float64(first.notifications),
	}

	// The engine floor: the same fabric with no-op hooks, best of a few,
	// against the best programmed pass.
	bare := f.run(nil, false, 1, nil)
	for i := 1; i < w.env.sc.reps; i++ {
		if again := f.run(nil, false, 1, nil); again.runWall < bare.runWall {
			bare = again
		}
	}
	vals["netsim.bare_ns_per_event"] = float64(bare.runWall) / float64(bare.events)
	vals["dataplane.ns_per_pkt_est"] = (quantile(runNs, 0) - float64(bare.runWall)) / float64(first.sent)

	// Parallel efficiency: events per second at one shard per processor
	// (run clamps to the partition's units) over events per second at one.
	par := f.run(nil, true, runtime.NumCPU(), nil)
	vals["netsim.shard_speedup"] = quantile(runNs, 0.5) / float64(par.runWall)
	if par.digest() != first.digest() {
		return vals, fmt.Errorf("fabric at %d shards gives %s, at 1 shard %s", runtime.NumCPU(), par.digest(), first.digest())
	}

	// The bench fabric is the experiments fabric: same seed, same records.
	tc := experiments.DefaultStreamTrialConfig(w.env.sc.k, 1, w.env.seed)
	tc.Epochs, tc.FaultStart, tc.FaultStop = w.env.sc.epochs, w.env.sc.faultStart, w.env.sc.faultStop
	tc.Windows = tc.Windows[:1]
	if ref := experiments.RunStreamTrial(tc, nil); ref.RecordsDrained != first.records || ref.Sent != first.sent {
		return vals, fmt.Errorf("bench fabric sent %d packets and tapped %d records, experiments.RunStreamTrial %d and %d",
			first.sent, first.records, ref.Sent, ref.RecordsDrained)
	}
	return vals, nil
}
