package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
	"mars/internal/stream"
	"mars/internal/topology"
)

// The stream trial is the k-ary tier: one partitioned data-plane
// simulation (k=16 by default) whose sink records feed internal/stream
// epoch by epoch — bounded per-flow state, sliding-window analysis, a
// cross-unit culprit merge per window — while a silent-drop gray failure
// turns on and off mid-run. The trial reports the streaming service's
// whole observable surface: detection latency from fault injection to
// the first window that ranks the true culprit, localization accuracy
// as a function of the window size, the live metrics snapshot, and the
// engine's event, latency and byte totals.
//
// Everything on stdout (Render, EngineLine) is invariant under the
// hook-owner count AND the stream worker count — CI diffs both. Only
// wall-clock throughput on stderr varies per machine.

// StreamTrialConfig sizes one streaming-diagnosis trial.
type StreamTrialConfig struct {
	Seed   int64
	K      int
	Shards int // hook owners, clamped to [1, units]; layout only
	// Workers bounds the stream service's per-window analysis fan-out.
	Workers int
	// Background traffic: the cross-pod mesh (meshEndpoints).
	NumFlows int
	RatePPS  float64
	// Epochs is the run length in telemetry epochs
	// (dataplane.EpochDuration each).
	Epochs int
	// Windows lists the window sizes (in epochs) evaluated side by side
	// over the same record stream; Windows[0] is the primary service
	// whose metrics and detection latency are reported.
	Windows []int
	// Fault: silent drop at DropProb on one aggregation switch's
	// edge-facing ports during epochs [FaultStart, FaultStop).
	FaultStart, FaultStop uint32
	DropProb              float64

	// Tee, if non-nil, observes every drained sink record in coordinator
	// order — the hook behind the batch-equivalence test.
	Tee func(dataplane.RTRecord)
}

// DefaultStreamTrialConfig is the benched configuration: a k-ary fabric
// under a cross-pod mesh of two flows per host, 100 ms epochs, a fault over
// the middle third of the run, and windows 2/4/8 compared.
func DefaultStreamTrialConfig(k, shards int, seed int64) StreamTrialConfig {
	hosts := k * k * k / 4
	return StreamTrialConfig{
		Seed:       seed,
		K:          k,
		Shards:     shards,
		Workers:    1,
		NumFlows:   2 * hosts,
		RatePPS:    120,
		Epochs:     15,
		Windows:    []int{4, 2, 8},
		FaultStart: 5,
		FaultStop:  10,
		DropProb:   0.30,
	}
}

// StreamWindowAccuracy is one window size's localization score: the
// fraction of fault-overlapping windows whose merged top-1 culprit is a
// drop at the injected switch.
type StreamWindowAccuracy struct {
	WindowEpochs int
	Windows      int // fault-overlapping windows analyzed
	Top1         int // of those, top-1 == ground truth
}

// StreamTrialResult carries the simulated outcome (invariant under the
// owner and worker counts) plus machine-dependent throughput figures.
type StreamTrialResult struct {
	K       int
	Shards  int // effective hook-owner count
	Workers int
	// Topology and workload dimensions.
	Switches, Hosts, Flows int
	// Epoch geometry and ground truth.
	Epochs     int
	EpochDur   netsim.Time
	FaultStart uint32
	FaultStop  uint32
	Culprit    topology.NodeID
	// Record flow (invariant).
	Sent, Delivered, Dropped int64
	RecordsDrained           int64
	// Engine and byte totals (invariant), summed over the hook owners.
	Events           int64
	MeanLatency      netsim.Time
	TotalLinkBytes   int64
	TelemetryBytes   int64
	TelemetryPackets int64
	// Primary service outcome (Windows[0]).
	PrimaryWindow    int
	DetectionEpoch   int // window-end epoch of first top-3 hit; -1 never
	DetectionLatency netsim.Time
	WindowsAnalyzed  int
	Diagnoses        int64
	Accuracy         []StreamWindowAccuracy
	MetricsJSON      string // primary service's live metrics snapshot
	// Results holds each service's closed windows, in Windows order.
	Results [][]stream.WindowResult
	// Machine-dependent accounting (stderr only).
	WallSeconds   float64
	DiagPerSec    float64 // per-unit window analyses per wall second
	RecordsPerSec float64
}

// RunStreamTrial executes one continuously-diagnosing trial: the
// simulator advances one telemetry epoch per step, each owner's resident
// program taps its sink records through Program.OnRecord into a per-owner
// buffer, and the buffers are drained into the stream services between
// steps. The per-unit record order is invariant under the owner count, and
// every service consumes per-unit sequences only, so the simulated outcome
// is byte-identical for any Shards or Workers value. progress (if non-nil)
// is the -progress heartbeat, called after every step with the simulated
// clock and the events dispatched so far.
func RunStreamTrial(tc StreamTrialConfig, progress func(now netsim.Time, events int64)) *StreamTrialResult {
	ft, err := topology.NewFatTree(tc.K)
	if err != nil {
		panic(err)
	}
	// The path table covers exactly the (source edge, sink edge) pairs the
	// mesh can produce (the all-pairs set is infeasible at k=16).
	table := selectivePathTable(ft, streamMeshPairs(ft, tc.NumFlows))
	sh, progs, bufs := NewShardedFabric(ft, tc.Shards, tc.Seed, table,
		tc.NumFlows, tc.RatePPS, netsim.Time(tc.Epochs)*dataplane.EpochDuration)

	// One stream service per window size over the same record stream.
	svcs := make([]*stream.Service, len(tc.Windows))
	for i, w := range tc.Windows {
		scfg := stream.DefaultConfig(tc.Seed)
		scfg.WindowEpochs = w
		scfg.Workers = tc.Workers
		svcs[i] = stream.New(scfg, sh.Part, table)
	}

	// Ground truth: silent drop on the edge-facing ports of the first
	// aggregation switch, toggled between Run steps.
	badAgg := ft.AggIDs[0]
	isEdge := map[topology.NodeID]bool{}
	for _, e := range ft.EdgeIDs {
		isEdge[e] = true
	}
	setDrop := func(p float64) {
		sim := sh.Shard(0)
		for _, nb := range ft.Topology.Neighbors(badAgg) {
			if !isEdge[nb] {
				continue // edge-facing ports only
			}
			if port, ok := ft.Topology.PortTo(badAgg, nb); ok {
				sim.SetPortDropProb(badAgg, port, p)
			}
		}
	}

	// drain feeds the owner buffers to every service in owner order.
	var drained int64
	drain := func() {
		for i := range bufs {
			for _, rec := range bufs[i] {
				if tc.Tee != nil {
					tc.Tee(rec)
				}
				for _, svc := range svcs {
					svc.Ingest(rec)
				}
			}
			drained += int64(len(bufs[i]))
			bufs[i] = bufs[i][:0]
		}
	}
	// step runs epoch e to its end and drains what it tapped.
	step := func(e int) {
		now := sh.Run(netsim.Time(e+1) * dataplane.EpochDuration)
		drain()
		if progress != nil {
			progress(now, sh.Events()[0])
		}
	}
	start := time.Now() //mars:wallclock the stream tier reports real sustained throughput
	for e := 0; e < tc.Epochs; e++ {
		if uint32(e) == tc.FaultStart {
			setDrop(tc.DropProb)
		}
		if uint32(e) == tc.FaultStop {
			setDrop(0)
		}
		step(e)
		// By the end of epoch e every record of epoch e-1 has arrived
		// (one-epoch lateness bound), so e-1 and older may finalize.
		for _, svc := range svcs {
			svc.CloseEpoch(uint32(e))
		}
	}
	// One grace epoch flushes the final epoch's in-flight records.
	step(tc.Epochs)
	for _, svc := range svcs {
		svc.Finish()
	}
	wall := time.Since(start).Seconds() //mars:wallclock the stream tier reports real sustained throughput

	stats := sh.MergedStats()
	res := &StreamTrialResult{
		K:        tc.K,
		Shards:   sh.NumShards(),
		Workers:  tc.Workers,
		Switches: ft.NumSwitches(),
		Hosts:    ft.NumHosts(),
		Flows:    tc.NumFlows,
		Epochs:   tc.Epochs, EpochDur: dataplane.EpochDuration,
		FaultStart: tc.FaultStart, FaultStop: tc.FaultStop,
		Culprit: badAgg,
		Sent:    stats.Sent, Delivered: stats.Delivered, Dropped: stats.Dropped,
		RecordsDrained: drained,
		Events:         sh.Events()[0],
		MeanLatency:    stats.MeanLatency(),
		TotalLinkBytes: sumLinkBytes(stats.LinkBytes),
		PrimaryWindow:  tc.Windows[0],
		DetectionEpoch: -1,
		WallSeconds:    wall,
	}
	for _, p := range progs {
		res.TelemetryBytes += p.Stats.TelemetryLinkBytes
		res.TelemetryPackets += p.Stats.TelemetryPackets
	}

	// Detection latency: the first window (primary service) whose merged
	// list ranks a drop at the true switch within the top 3 of the
	// drop-cause culprits, measured from the fault's first epoch to that
	// window's close. The rank is within the fault's cause class: the
	// always-on latency pipeline surfaces tail-latency culprits from
	// every healthy pod each window, and the cross-unit merge normalizes
	// per unit, so class-blind rank would measure pod count, not
	// localization.
	primary := svcs[0]
	for _, w := range primary.Results() {
		if res.DetectionEpoch >= 0 {
			break
		}
		drops := 0
		for _, c := range w.Culprits {
			if c.Cause != rca.CauseDrop {
				continue
			}
			if drops++; drops > 3 {
				break
			}
			if c.ContainsSwitch(badAgg) {
				res.DetectionEpoch = int(w.End)
				res.DetectionLatency = netsim.Time(w.End+1)*dataplane.EpochDuration - netsim.Time(tc.FaultStart)*dataplane.EpochDuration
				break
			}
		}
	}
	res.WindowsAnalyzed = len(primary.Results())
	res.MetricsJSON = primary.Metrics().Snapshot()
	if v, ok := primary.Metrics().Get("diagnoses"); ok {
		res.Diagnoses = v
		if wall > 0 {
			res.DiagPerSec = float64(v) / wall
		}
	}
	if wall > 0 {
		res.RecordsPerSec = float64(drained) / wall
	}

	for i, svc := range svcs {
		res.Results = append(res.Results, svc.Results())
		acc := StreamWindowAccuracy{WindowEpochs: tc.Windows[i]}
		for _, w := range svc.Results() {
			if w.End < tc.FaultStart || w.Start >= tc.FaultStop {
				continue
			}
			acc.Windows++
			// Top-1 within the drop class, matching the detection rank.
			for _, c := range w.Culprits {
				if c.Cause != rca.CauseDrop {
					continue
				}
				if c.ContainsSwitch(badAgg) {
					acc.Top1++
				}
				break
			}
		}
		res.Accuracy = append(res.Accuracy, acc)
	}
	sort.Slice(res.Accuracy, func(i, j int) bool {
		return res.Accuracy[i].WindowEpochs < res.Accuracy[j].WindowEpochs
	})
	return res
}

// streamMeshPairs returns the set of (source edge, sink edge) switch
// pairs the mesh's first numFlows flows traverse.
func streamMeshPairs(ft *topology.FatTree, numFlows int) map[[2]topology.NodeID]bool {
	pairs := map[[2]topology.NodeID]bool{}
	for i := 0; i < numFlows; i++ {
		src, dst := meshEndpoints(ft, i)
		se, _ := ft.EdgeSwitchOf(src)
		de, _ := ft.EdgeSwitchOf(dst)
		pairs[[2]topology.NodeID{se, de}] = true
	}
	return pairs
}

// selectivePathTable builds a path-ID table over exactly the edge pairs
// the workload uses, widening the ID space until the used set is
// collision-free.
func selectivePathTable(ft *topology.FatTree, pairs map[[2]topology.NodeID]bool) *pathid.Table {
	keys := make([][2]topology.NodeID, 0, len(pairs))
	for p := range pairs { //mars:mapiter-ok keys are sorted before use
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var paths []topology.Path
	for _, p := range keys {
		if p[0] == p[1] {
			continue
		}
		paths = append(paths, ft.AllShortestPaths(p[0], p[1])...)
	}
	table, err := pathid.BuildWidening(pathid.DefaultConfig(), ft.Topology, paths)
	if err != nil {
		panic(err)
	}
	return table
}

// Render formats the simulated outcome. Invariant under both the
// hook-owner count and the stream worker count — the determinism CI
// job diffs this output across both — so neither Shards, Workers, nor
// any wall-clock figure may appear.
func (r *StreamTrialResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stream trial: continuous diagnosis at K=%d\n", r.K)
	fmt.Fprintf(&b, "  topology: switches=%d hosts=%d flows=%d\n", r.Switches, r.Hosts, r.Flows)
	fmt.Fprintf(&b, "  timeline: epochs=%d epoch=%v fault=[%d,%d) culprit=s%d\n",
		r.Epochs, r.EpochDur, r.FaultStart, r.FaultStop, r.Culprit)
	fmt.Fprintf(&b, "  packets:  sent=%d delivered=%d dropped=%d records=%d\n",
		r.Sent, r.Delivered, r.Dropped, r.RecordsDrained)
	if r.DetectionEpoch >= 0 {
		fmt.Fprintf(&b, "  detect:   window=%d epochs, first-hit epoch=%d latency=%v\n",
			r.PrimaryWindow, r.DetectionEpoch, r.DetectionLatency)
	} else {
		fmt.Fprintf(&b, "  detect:   window=%d epochs, MISSED (%d windows analyzed)\n",
			r.PrimaryWindow, r.WindowsAnalyzed)
	}
	for _, a := range r.Accuracy {
		pct := 0.0
		if a.Windows > 0 {
			pct = 100 * float64(a.Top1) / float64(a.Windows)
		}
		fmt.Fprintf(&b, "  window=%d: fault-windows=%d top1=%d (%.0f%%)\n",
			a.WindowEpochs, a.Windows, a.Top1, pct)
	}
	fmt.Fprintf(&b, "  metrics:  %s\n", r.MetricsJSON)
	return b.String()
}

// EngineLine formats the engine's event, latency and byte totals. Like
// Render it is invariant under the owner and worker counts and goes to
// stdout; it stays out of Render so the stream digest pin, which hashes
// Render, keeps its value.
func (r *StreamTrialResult) EngineLine() string {
	return fmt.Sprintf("  engine:   events=%d mean-latency=%v links=%d telemetry=%d telemetry-packets=%d",
		r.Events, r.MeanLatency, r.TotalLinkBytes, r.TelemetryBytes, r.TelemetryPackets)
}

// TimingLine is the machine-readable stderr throughput summary.
func (r *StreamTrialResult) TimingLine() string {
	return fmt.Sprintf("timing: exp=stream-trial k=%d shards=%d workers=%d wall=%.2fs records/s=%.0f diagnoses/s=%.0f",
		r.K, r.Shards, r.Workers, r.WallSeconds, r.RecordsPerSec, r.DiagPerSec)
}

// ScaleHeartbeat builds the stream tier's -progress callback: one stderr
// line per Run step with the simulated clock and the cumulative
// dispatched-event count, so long k=16 runs show liveness.
func ScaleHeartbeat(w io.Writer) func(now netsim.Time, events int64) {
	return func(now netsim.Time, events int64) {
		fmt.Fprintf(w, "scale-progress: t=%v events=%d\n", now, events)
	}
}
