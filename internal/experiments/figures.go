package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mars"
	"mars/internal/dataplane"
	"mars/internal/faults"
	"mars/internal/harness"
	"mars/internal/metrics"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/reservoir"
	"mars/internal/topology"
	"mars/internal/workload"
)

// --- Fig. 2: link utilization CDF, core vs edge ---------------------------

// Fig2Result holds per-layer link utilization samples.
type Fig2Result struct {
	// Utilization[layer] = per-link utilization fractions sampled over
	// 100 ms windows.
	Core, Agg, Edge *metrics.CDF
}

// RunFig2 reproduces the motivation study: under a realistic mesh, core
// links run hotter than edge links, which is why MARS offloads telemetry
// storage to edge switches.
func RunFig2(seed int64) *Fig2Result {
	cfg := mars.DefaultConfig().Sim
	cfg.HostLinkBandwidthBps = cfg.LinkBandwidthBps // uniform rating for the CDF
	ft := newFatTree(4)
	_, sim := newSubstrate(ft, seed, cfg, nil)
	// The motivating CDF reproduces the *measurement conditions* of the
	// Benson et al. study the paper cites: skewed host popularity (zipf
	// endpoints — most access links idle, a few hot) over an oversubscribed
	// fabric. The structural 1:1 fat-tree is rated 4:1 at the core for the
	// utilization normalization (see DESIGN.md substitutions).
	rng := rand.New(rand.NewSource(seed))
	zipf := func() topology.NodeID {
		// P(host h) ∝ 1/(h+1): host 0 is ~12x hotter than host 15.
		var weights []float64
		total := 0.0
		for i := range ft.HostIDs {
			w := 1 / float64(i+1)
			weights = append(weights, w)
			total += w
		}
		x := rng.Float64() * total
		for i, w := range weights {
			x -= w
			if x < 0 {
				return ft.HostIDs[i]
			}
		}
		return ft.HostIDs[len(ft.HostIDs)-1]
	}
	for i := 0; i < 48; i++ {
		src := zipf()
		dst := zipf()
		for dst == src {
			dst = zipf()
		}
		f := &workload.Flow{
			Src: src, Dst: dst, Key: netsim.FlowKey(i + 1),
			RatePPS: 220 * (0.7 + 0.6*rng.Float64()),
			Gaps:    workload.GapLognormal,
			Start:   0, Stop: 5 * netsim.Second,
		}
		f.Install(sim)
	}

	type linkClass struct {
		link  topology.LinkID
		class topology.Layer
	}
	// Layer classes follow the measurement convention of the Benson et
	// al. study the paper cites: "edge" is the access layer (host-facing
	// links), "aggregation" the agg-edge fabric, "core" the core-agg
	// links. Hotspot traffic leaves many access links idle while the
	// shared core concentrates whatever crosses pods.
	var classes []linkClass
	for _, l := range ft.Links {
		la, lb := ft.Node(l.A).Layer, ft.Node(l.B).Layer
		switch {
		case la == topology.LayerHost || lb == topology.LayerHost:
			classes = append(classes, linkClass{l.ID, topology.LayerEdge})
		case la == topology.LayerCore || lb == topology.LayerCore:
			classes = append(classes, linkClass{l.ID, topology.LayerCore})
		default:
			classes = append(classes, linkClass{l.ID, topology.LayerAggregation})
		}
	}

	var core, agg, edge []float64
	prev := make([][2]int64, len(ft.Links))
	sampleEvery(sim, 5*netsim.Second, func() {
		for _, lc := range classes {
			cur := sim.Stats.LinkDirBytes[lc.link]
			for d := 0; d < 2; d++ {
				bits := float64(cur[d]-prev[lc.link][d]) * 8
				bw := float64(sim.Cfg.LinkBandwidthBps)
				if lc.class == topology.LayerCore {
					bw /= 4 // 4:1 oversubscription rating
				}
				util := bits / (sampleWindow.Seconds() * bw)
				if util > 1 {
					util = 1 // rated utilization saturates
				}
				switch lc.class {
				case topology.LayerCore:
					core = append(core, util)
				case topology.LayerAggregation:
					agg = append(agg, util)
				case topology.LayerEdge, topology.LayerHost, topology.LayerUnknown:
					edge = append(edge, util)
				default:
					edge = append(edge, util)
				}
			}
			prev[lc.link] = cur
		}
	})
	sim.Run(5 * netsim.Second)
	return &Fig2Result{
		Core: metrics.NewCDF(core),
		Agg:  metrics.NewCDF(agg),
		Edge: metrics.NewCDF(edge),
	}
}

// Render formats the CDF quantiles.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2: link utilization CDF by layer (quantiles)\n")
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s %8s\n", "layer", "p10", "p50", "p90", "p99", "mean")
	row := func(name string, c *metrics.CDF) {
		fmt.Fprintf(&b, "%-8s %8.3f %8.3f %8.3f %8.3f %8.3f\n", name,
			c.Quantile(0.1), c.Quantile(0.5), c.Quantile(0.9), c.Quantile(0.99), c.Mean())
	}
	row("core", r.Core)
	row("agg", r.Agg)
	row("edge", r.Edge)
	return b.String()
}

// --- Fig. 3: INT header size vs hops; path-encoding memory ----------------

// Fig3Row compares per-packet header bytes at a given hop count.
type Fig3Row struct {
	Hops                      int
	INTMDBytes, IntSightBytes int
	SpiderMonBytes, MARSBytes int
}

// Fig3Result holds the header-size sweep and the MAT memory comparison.
type Fig3Result struct {
	Rows []Fig3Row
	// Memory comparison on the K=4 fat-tree path set:
	MARSEntries, IntSightEntries int
	MARSBytes, IntSightBytes     int
	SavingsPct                   float64
}

// RunFig3 computes the Motivation #2 numbers: INT-MD headers grow with
// path length while ID-based encodings stay flat, and MARS's
// conflict-only MAT entries cost far less switch memory than IntSight's
// per-hop entries.
func RunFig3() *Fig3Result {
	const intMDPerHop = 8 // INT-MD metadata per hop (one 8-byte stack entry)
	res := &Fig3Result{}
	for hops := 1; hops <= 10; hops++ {
		res.Rows = append(res.Rows, Fig3Row{
			Hops:           hops,
			INTMDBytes:     12 + intMDPerHop*hops, // fixed INT header + stack
			IntSightBytes:  33,                    // fixed (paper)
			SpiderMonBytes: 4,
			MARSBytes:      pathid.DefaultConfig().HeaderBytes() + dataplane.TelemetryHeaderBytes,
		})
	}
	ft, err := topology.NewFatTree(4)
	if err != nil {
		panic(err)
	}
	paths := ft.AllEdgePairPaths()
	tbl, err := pathid.BuildTable(pathid.DefaultConfig(), ft.Topology, paths)
	if err != nil {
		panic(err)
	}
	res.MARSEntries = tbl.MATEntryCount()
	res.MARSBytes = tbl.MemoryBytes()
	res.IntSightEntries = pathid.IntSightMATEntries(paths)
	res.IntSightBytes = res.IntSightEntries * pathid.IntSightMATEntryBytes
	res.SavingsPct = 100 * (1 - float64(res.MARSBytes)/float64(res.IntSightBytes))
	return res
}

// Render formats the Fig 3 tables.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3 (left): telemetry header bytes per packet vs path length\n")
	fmt.Fprintf(&b, "%-6s %8s %10s %11s %6s\n", "hops", "INT-MD", "IntSight", "SpiderMon", "MARS")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6d %8d %10d %11d %6d\n", row.Hops, row.INTMDBytes, row.IntSightBytes, row.SpiderMonBytes, row.MARSBytes)
	}
	fmt.Fprintf(&b, "\nFig 3 (right) / §5.5: PathID switch memory on K=4 fat-tree (%d ordered paths)\n", 208)
	fmt.Fprintf(&b, "MARS:     %4d MAT entries, %6d B\n", r.MARSEntries, r.MARSBytes)
	fmt.Fprintf(&b, "IntSight: %4d MAT entries, %6d B\n", r.IntSightEntries, r.IntSightBytes)
	fmt.Fprintf(&b, "MARS saves %.1f%% switch memory\n", r.SavingsPct)
	return b.String()
}

// --- Fig. 5: dynamic vs static threshold on diurnal load ------------------

// Fig5Point is one sample of the threshold-tracking trace.
type Fig5Point struct {
	T              netsim.Time
	Latency        float64
	DynamicThr     float64
	StaticThr      float64
	IsAnomaly      bool // ground truth (injected spike)
	DynamicFlagged bool
	StaticFlagged  bool
}

// Fig5Result is the full trace plus summary counts.
type Fig5Result struct {
	Points []Fig5Point
	// False positives/negatives per detector (static = high pick; the low
	// pick is tallied separately).
	DynFP, DynFN, StaFP, StaFN, StaLowFP, StaLowFN int
}

// RunFig5 reproduces the Fig. 5 illustration: latency follows a diurnal
// load curve; a static threshold either misses the spike or false-alarms
// at the daily peak, while the reservoir's dynamic threshold tracks the
// baseline and catches the spike.
func RunFig5(seed int64) *Fig5Result {
	rng := rand.New(rand.NewSource(seed))
	day := 20 * netsim.Second // compressed "day"
	rate := workload.Diurnal(0.3, 1.0, day)
	res := reservoir.New(reservoir.Config{
		Volume: 128, StaticProb: 0.5, C: 6, Scale: reservoir.ScaleMAD,
		Penalty: reservoir.PenaltyText, DefaultThreshold: 1e12, MinSamples: 8,
	}, rng)

	// Latency scales with load (queueing): base 1 ms, up to ~5 ms at peak.
	latAt := func(t netsim.Time) float64 {
		load := rate(t)
		base := 1e6 + 4e6*load*load
		return base * (1 + 0.1*rng.NormFloat64())
	}
	// Two static picks illustrate the dilemma: the high threshold clears
	// the daily peak but misses a trough-time spike; the low threshold
	// catches the spike but false-alarms every peak (Fig. 5's green zone).
	staticHigh, staticLow := 8e6, 3e6

	out := &Fig5Result{}
	// The spike lands in the diurnal trough, where latency is low.
	spikeStart, spikeEnd := 2500*netsim.Millisecond, 3500*netsim.Millisecond
	for t := netsim.Time(0); t < day; t += 50 * netsim.Millisecond {
		l := latAt(t)
		anomaly := t >= spikeStart && t < spikeEnd
		if anomaly {
			l *= 4 // the spike
		}
		dynFlag := res.Input(l)
		staHighFlag := l > staticHigh
		staLowFlag := l > staticLow
		out.Points = append(out.Points, Fig5Point{
			T: t, Latency: l, DynamicThr: res.Threshold(), StaticThr: staticHigh,
			IsAnomaly: anomaly, DynamicFlagged: dynFlag, StaticFlagged: staHighFlag,
		})
		switch {
		case dynFlag && !anomaly:
			out.DynFP++
		case !dynFlag && anomaly:
			out.DynFN++
		}
		switch {
		case staHighFlag && !anomaly:
			out.StaFP++
		case !staHighFlag && anomaly:
			out.StaFN++
		}
		switch {
		case staLowFlag && !anomaly:
			out.StaLowFP++
		case !staLowFlag && anomaly:
			out.StaLowFN++
		}
	}
	return out
}

// Render summarizes the trace.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5: dynamic vs static threshold over a diurnal day with one spike\n")
	fmt.Fprintf(&b, "samples=%d  dynamic: FP=%d FN=%d   static-high: FP=%d FN=%d   static-low: FP=%d FN=%d\n",
		len(r.Points), r.DynFP, r.DynFN, r.StaFP, r.StaFN, r.StaLowFP, r.StaLowFN)
	// Downsampled trace for plotting.
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %s\n", "t(s)", "latency(ms)", "dynThr(ms)", "staThr(ms)", "flags")
	for i, p := range r.Points {
		if i%20 != 0 {
			continue
		}
		flags := ""
		if p.IsAnomaly {
			flags += "A"
		}
		if p.DynamicFlagged {
			flags += "d"
		}
		if p.StaticFlagged {
			flags += "s"
		}
		fmt.Fprintf(&b, "%-8.1f %12.2f %12.2f %12.2f %s\n",
			p.T.Seconds(), p.Latency/1e6, p.DynamicThr/1e6, p.StaticThr/1e6, flags)
	}
	return b.String()
}

// --- Fig. 7: fault symptom traces ------------------------------------------

// Fig7Result captures the two illustration traces.
type Fig7Result struct {
	// BurstLatencyMs: mean end-to-end latency per 100 ms window around a
	// micro-burst injection.
	BurstT         []float64
	BurstLatencyMs []float64
	// ECMP per-path throughput (pps) for the skewed group, per window.
	ECMPT        []float64
	ECMPHeavyPPS []float64
	ECMPLightPPS []float64
}

// RunFig7 reproduces the fault-injection symptom illustrations: the
// transient latency spike of a micro-burst (7a) and the diverging path
// throughputs under ECMP imbalance (7b).
func RunFig7(seed int64) *Fig7Result {
	out := &Fig7Result{}

	// (a) micro-burst latency trace: mean latency of traffic sinking at
	// the burst's destination rack (the affected path), as in the paper's
	// per-path illustration.
	{
		var winLat netsim.Time
		var winN int64
		hook := &latencyWindow{lat: &winLat, n: &winN}
		sc := mars.DefaultScenario(seed, faults.MicroBurst)
		ft := newFatTree(sc.K)
		router, sim := newSubstrate(ft, sc.Seed, sc.Config().Sim, hook)
		mars.InstallBackground(sim, ft, sc.Flows, sc.RatePPS)
		inj := faults.NewInjector(sim, ft, router)
		gt := inj.Inject(faults.MicroBurst, sc.FaultStart, netsim.Second)
		hook.sinkEdge = gt.BurstSinkEdge
		hook.topo = ft.Topology
		sampleEvery(sim, sc.RunFor, func() {
			mean := 0.0
			if winN > 0 {
				mean = (netsim.Time(int64(winLat) / winN)).Millis()
			}
			out.BurstT = append(out.BurstT, sim.Now().Seconds())
			out.BurstLatencyMs = append(out.BurstLatencyMs, mean)
			winLat, winN = 0, 0
		})
		sim.Run(sc.RunFor)
	}

	// (b) ECMP imbalance throughput split.
	{
		sc := mars.DefaultScenario(seed, faults.ECMPImbalance)
		ft := newFatTree(sc.K)
		router, sim := newSubstrate(ft, sc.Seed, sc.Config().Sim, nil)
		mars.InstallBackground(sim, ft, sc.Flows, sc.RatePPS)
		// Deterministic: skew edge 0's uplinks 1:8 during the window.
		e0 := ft.EdgeIDs[0]
		up := ft.AggIDs[:2]
		sim.At(sc.FaultStart, func() { router.SetWeight(e0, up[1], 8) })
		sim.At(sc.FaultStart+sc.FaultDur, func() { router.ResetWeights(e0) })
		p0, _ := ft.PortTo(e0, up[0])
		p1, _ := ft.PortTo(e0, up[1])
		l0 := ft.Node(e0).Ports[p0].Link
		l1 := ft.Node(e0).Ports[p1].Link
		// Count only the upward direction (edge -> agg).
		d0, d1 := 0, 0
		if ft.Links[l0].A != e0 {
			d0 = 1
		}
		if ft.Links[l1].A != e0 {
			d1 = 1
		}
		prev0, prev1 := int64(0), int64(0)
		sampleEvery(sim, sc.RunFor, func() {
			c0, c1 := sim.Stats.LinkDirBytes[l0][d0], sim.Stats.LinkDirBytes[l1][d1]
			// Approximate pps by bytes/avg-size per window.
			const avgPkt = 700.0
			out.ECMPT = append(out.ECMPT, sim.Now().Seconds())
			out.ECMPLightPPS = append(out.ECMPLightPPS, float64(c0-prev0)/avgPkt/sampleWindow.Seconds())
			out.ECMPHeavyPPS = append(out.ECMPHeavyPPS, float64(c1-prev1)/avgPkt/sampleWindow.Seconds())
			prev0, prev1 = c0, c1
		})
		sim.Run(sc.RunFor)
	}
	return out
}

// sampleWindow is the probe period of the figure sims (Figs. 2, 7a, 7b).
const sampleWindow = 100 * netsim.Millisecond

// sampleEvery runs sample on the bare simulator at every multiple of
// sampleWindow, the last time at the first multiple at or past until.
func sampleEvery(sim *netsim.Simulator, until netsim.Time, sample func()) {
	var tick func()
	tick = func() {
		sample()
		if sim.Now() < until {
			sim.After(sampleWindow, tick)
		}
	}
	sim.At(sampleWindow, tick)
}

type latencyWindow struct {
	netsim.NopHooks
	lat      *netsim.Time
	n        *int64
	topo     *topology.Topology
	sinkEdge topology.NodeID
}

func (l *latencyWindow) OnDeliver(s *netsim.Simulator, _ topology.NodeID, pkt *netsim.Packet) {
	if l.topo != nil {
		if edge, ok := l.topo.EdgeSwitchOf(pkt.Dst); !ok || edge != l.sinkEdge {
			return
		}
	}
	*l.lat += s.Now() - pkt.SendTime
	*l.n++
}

// Render prints both traces.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7a: mean e2e latency (ms) per 100 ms window; burst at t=2.0-3.0s\n")
	for i := range r.BurstT {
		fmt.Fprintf(&b, "  t=%.1f lat=%.2f\n", r.BurstT[i], r.BurstLatencyMs[i])
	}
	fmt.Fprintf(&b, "Fig 7b: per-uplink throughput (pps); skew 1:8 at t=2.0-3.5s\n")
	for i := range r.ECMPT {
		fmt.Fprintf(&b, "  t=%.1f light=%.0f heavy=%.0f\n", r.ECMPT[i], r.ECMPLightPPS[i], r.ECMPHeavyPPS[i])
	}
	return b.String()
}

// --- Fig. 8: anomaly detection effectiveness -------------------------------

// Fig8Row is one detector's scores.
type Fig8Row struct {
	Name string
	metrics.Confusion
}

// Fig8Result compares static thresholds against the reservoir variants.
type Fig8Result struct {
	Rows []Fig8Row
}

// RunFig8 evaluates detectors on labeled synthetic latency streams: many
// flows with diurnal baselines and injected latency anomalies. Static
// thresholds trade recall against precision; the reservoir with the
// penalty factor scores best, and removing the penalty costs recall
// because sustained anomalies inflate the threshold (the paper's Fig. 8
// story).
func RunFig8(seed int64, flows, samplesPerFlow int) *Fig8Result {
	rng := rand.New(rand.NewSource(seed))
	type det struct {
		name string
		mk   func() reservoir.Detector
	}
	mkRes := func(p reservoir.PenaltyMode, scale reservoir.Scale) func() reservoir.Detector {
		return func() reservoir.Detector {
			return reservoir.New(reservoir.Config{
				Volume: 128, StaticProb: 0.5, C: 6, Scale: scale,
				Penalty: p, DefaultThreshold: 1e12, MinSamples: 8,
			}, rand.New(rand.NewSource(rng.Int63())))
		}
	}
	dets := []det{
		{"static-low", func() reservoir.Detector { return &reservoir.StaticDetector{Threshold: 4e6} }},
		{"static-mid", func() reservoir.Detector { return &reservoir.StaticDetector{Threshold: 8e6} }},
		{"static-high", func() reservoir.Detector { return &reservoir.StaticDetector{Threshold: 16e6} }},
		{"reservoir", mkRes(reservoir.PenaltyText, reservoir.ScaleMAD)},
		{"reservoir-noalpha", mkRes(reservoir.PenaltyOff, reservoir.ScaleMAD)},
		{"reservoir-stddev", mkRes(reservoir.PenaltyText, reservoir.ScaleStddev)},
	}
	confusions := make([]metrics.Confusion, len(dets))

	day := netsim.Time(samplesPerFlow) * 50 * netsim.Millisecond
	for f := 0; f < flows; f++ {
		// Per-flow baseline level and diurnal phase.
		base := 0.3e6 + rng.Float64()*5.7e6
		curve := workload.Diurnal(0.3, 1.0, day)
		insts := make([]reservoir.Detector, len(dets))
		for i, d := range dets {
			insts[i] = d.mk()
		}
		// One sustained anomaly window per flow (20% of the stream).
		aStart := rng.Intn(samplesPerFlow / 2)
		aEnd := aStart + samplesPerFlow/5
		for s := 0; s < samplesPerFlow; s++ {
			t := netsim.Time(s) * 50 * netsim.Millisecond
			l := base * (1 + 3*curve(t)) * (1 + 0.1*rng.NormFloat64())
			anomaly := s >= aStart && s < aEnd
			if anomaly {
				l *= 3.5
			}
			warm := s >= samplesPerFlow/10 // let reservoirs fill before scoring
			for i := range insts {
				flag := insts[i].Input(l)
				if warm {
					confusions[i].Add(flag, anomaly)
				}
			}
		}
	}
	out := &Fig8Result{}
	for i, d := range dets {
		out.Rows = append(out.Rows, Fig8Row{Name: d.name, Confusion: confusions[i]})
	}
	return out
}

// Render formats the detector comparison.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: anomaly detection effectiveness\n")
	fmt.Fprintf(&b, "%-20s %9s %9s %9s\n", "detector", "precision", "recall", "F1")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %9.3f %9.3f %9.3f\n", row.Name, row.Precision(), row.Recall(), row.F1())
	}
	return b.String()
}

// --- Fig. 9: bandwidth overhead --------------------------------------------

// Fig9Row is one system's overhead, averaged over trials.
type Fig9Row struct {
	System         SystemKind
	TelemetryBytes float64
	DiagnosisBytes float64
	// PctOfTraffic is total overhead relative to all link traffic.
	PctOfTraffic float64
}

// Fig9Result compares the four systems' bandwidth costs.
type Fig9Result struct {
	Rows []Fig9Row
}

// RunFig9With measures overhead in the Table 1 scenarios: telemetry bytes
// are extra in-band header bytes crossing links; diagnosis bytes are
// control-channel exchanges. One trial per fault kind per system, on
// Table 1's trial-0 seeds.
func RunFig9With(cfg harness.Config, baseSeed int64) *Fig9Result {
	results := sweep(cfg, "fig9", systemRows(), faultSuite(), 1, baseSeed)
	out := &Fig9Result{}
	for r, sys := range Systems() {
		var tel, diag, total float64
		for _, tr := range results[r] {
			tel += float64(tr.TelemetryBytes)
			diag += float64(tr.DiagnosisBytes)
			total += float64(tr.TotalLinkBytes)
		}
		n := float64(len(results[r]))
		out.Rows = append(out.Rows, Fig9Row{
			System:         sys,
			TelemetryBytes: tel / n,
			DiagnosisBytes: diag / n,
			PctOfTraffic:   100 * (tel + diag) / total,
		})
	}
	return out
}

// Render formats the overhead comparison.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9: bandwidth overhead per 4 s run (mean over 5 fault scenarios)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %12s\n", "system", "telemetry(B)", "diagnosis(B)", "% of traffic")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %14.0f %14.0f %12.3f\n", row.System, row.TelemetryBytes, row.DiagnosisBytes, row.PctOfTraffic)
	}
	return b.String()
}

// --- Fig. 10: switch resources vs Ring Table size --------------------------

// Fig10Result sweeps the Ring Table size through the resource model.
type Fig10Result struct {
	Rows []dataplane.ResourceUsage
}

// RunFig10 evaluates the resource model at the paper's sweep points using
// the real MAT entry count of the K=4 path set and representative table
// occupancies from a trial run.
func RunFig10() *Fig10Result {
	ft, _ := topology.NewFatTree(4)
	tbl, err := pathid.BuildTable(pathid.DefaultConfig(), ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		panic(err)
	}
	out := &Fig10Result{}
	for _, rs := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		out.Rows = append(out.Rows, dataplane.ModelResources(rs, tbl.MATEntryCount(), 16, 64))
	}
	return out
}

// Render formats the sweep.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10: switch resource usage vs Ring Table size (%% of Tofino capacity)\n")
	fmt.Fprintf(&b, "%-8s %8s %8s %10s %8s %12s\n", "ring", "SRAM", "PHV", "HashBits", "TCAM", "ActionData")
	for _, u := range r.Rows {
		fmt.Fprintf(&b, "%-8d %8.3f %8.3f %10.3f %8.3f %12.3f\n",
			u.RingSize, u.SRAMPct, u.PHVPct, u.HashBitsPct, u.TCAMPct, u.ActionDataPct)
	}
	return b.String()
}

// --- §5.5 PathID memory (standalone) ---------------------------------------

// PathIDMemoryResult compares encodings across widths and algorithms.
type PathIDMemoryResult struct {
	Rows []PathIDMemoryRow
	// IntSight baseline:
	IntSightEntries, IntSightBytes int
}

// PathIDMemoryRow is one (algorithm, width) configuration.
type PathIDMemoryRow struct {
	Alg     string
	Width   uint
	Entries int
	Bytes   int
}

// RunPathIDMemory sweeps hash configurations over the K=4 path set.
func RunPathIDMemory() *PathIDMemoryResult {
	ft, _ := topology.NewFatTree(4)
	paths := ft.AllEdgePairPaths()
	out := &PathIDMemoryResult{IntSightEntries: pathid.IntSightMATEntries(paths)}
	out.IntSightBytes = out.IntSightEntries * pathid.IntSightMATEntryBytes
	for _, cfg := range []pathid.Config{
		{Alg: pathid.CRC16, Width: 8},
		{Alg: pathid.CRC16, Width: 12},
		{Alg: pathid.CRC16, Width: 16},
		{Alg: pathid.CRC32, Width: 8},
		{Alg: pathid.CRC32, Width: 16},
	} {
		tbl, err := pathid.BuildTable(cfg, ft.Topology, paths)
		if err != nil {
			continue
		}
		out.Rows = append(out.Rows, PathIDMemoryRow{
			Alg: cfg.Alg.String(), Width: cfg.Width,
			Entries: tbl.MATEntryCount(), Bytes: tbl.MemoryBytes(),
		})
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		if out.Rows[i].Alg != out.Rows[j].Alg {
			return out.Rows[i].Alg < out.Rows[j].Alg
		}
		return out.Rows[i].Width < out.Rows[j].Width
	})
	return out
}

// Render formats the sweep.
func (r *PathIDMemoryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.5: PathID MAT entries on K=4 fat-tree (208 ordered paths)\n")
	fmt.Fprintf(&b, "%-8s %6s %8s %8s\n", "hash", "width", "entries", "bytes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %6d %8d %8d\n", row.Alg, row.Width, row.Entries, row.Bytes)
	}
	fmt.Fprintf(&b, "IntSight baseline: %d entries, %d bytes\n", r.IntSightEntries, r.IntSightBytes)
	return b.String()
}
