package experiments

import (
	"testing"

	"mars/internal/dataplane"
	"mars/internal/faults"
	"mars/internal/harness"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/rca"
	"mars/internal/stream"
	"mars/internal/topology"
)

// testStreamConfig is a small-but-real trial: k=4 fabric, enough traffic
// and fault duration for the drop pipeline to clear its support floors.
func testStreamConfig(seed int64, shards, workers int) StreamTrialConfig {
	tc := DefaultStreamTrialConfig(4, shards, seed)
	tc.Workers = workers
	tc.NumFlows = 64
	tc.RatePPS = 120
	tc.Epochs = 12
	tc.FaultStart = 4
	tc.FaultStop = 9
	tc.DropProb = 0.3
	tc.Windows = []int{3, 2}
	return tc
}

// The driver's stdout surface must be byte-identical for any simulator
// shard count and any stream worker count.
func TestStreamTrialShardWorkerInvariance(t *testing.T) {
	base := RunStreamTrial(testStreamConfig(42, 1, 1), nil)
	out := base.Render() + base.EngineLine()
	for _, tc := range []struct{ shards, workers int }{{2, 1}, {4, 1}, {1, 4}, {3, 7}} {
		r := RunStreamTrial(testStreamConfig(42, tc.shards, tc.workers), nil)
		got := r.Render() + r.EngineLine()
		if got != out {
			t.Errorf("shards=%d workers=%d diverges from shards=1 workers=1:\n--- base ---\n%s--- got ---\n%s",
				tc.shards, tc.workers, out, got)
		}
	}
}

// The trial must actually detect the injected silent drop: a drop culprit
// containing the faulted aggregation switch within the top 3 of some
// window, with positive latency from the fault start. The -progress
// heartbeat fires once per epoch step plus the grace step, and its last
// event count is the one Render prints.
func TestStreamTrialDetectsFault(t *testing.T) {
	var (
		beats int
		last  int64
	)
	tc := testStreamConfig(42, 2, 2)
	r := RunStreamTrial(tc, func(_ netsim.Time, events int64) { beats++; last = events })
	if beats != tc.Epochs+1 || last != r.Events {
		t.Errorf("heartbeat fired %d times ending at %d events, want %d ending at %d",
			beats, last, tc.Epochs+1, r.Events)
	}
	if r.Delivered == 0 || r.TelemetryPackets == 0 {
		t.Fatalf("degenerate trial:\n%s%s", r.Render(), r.EngineLine())
	}
	if r.DetectionEpoch < 0 {
		t.Fatalf("fault never detected:\n%s", r.Render())
	}
	if r.DetectionEpoch < int(r.FaultStart) {
		t.Fatalf("detection epoch %d precedes fault start %d", r.DetectionEpoch, r.FaultStart)
	}
	if r.DetectionLatency <= 0 {
		t.Fatalf("non-positive detection latency %v", r.DetectionLatency)
	}
	if r.RecordsDrained == 0 {
		t.Fatal("no sink records drained")
	}
}

// flatThresholds is the batch comparison's stand-in for the controller's
// reservoirs: the paper's deliberately high default for unknown flows.
type flatThresholds struct{}

func (flatThresholds) ThresholdOf(dataplane.FlowID) netsim.Time {
	return 10 * netsim.Second
}

// The windowed streaming path must converge to the batch path's verdict:
// one analyzer over the full record trace (the post-hoc diagnosis) and
// the stream's cross-window merge must blame the same top-1 switch. It
// holds on the stream trial's silent drop and on Table 1's micro-burst
// trial. On Table 1's other four faults the whole-trace batch top-1 is one
// of the fabric's own fault-free anomalies (ROADMAP item 2), so there is
// no verdict on the fault to converge to.
func TestStreamMatchesBatchTop1(t *testing.T) {
	t.Run("stream-trial/drop", func(t *testing.T) {
		var all []dataplane.RTRecord
		tc := testStreamConfig(42, 1, 1)
		// Static fault: on for the entire run, the convergence setting — both
		// paths see the same sustained deficit against their cumulative margin.
		tc.FaultStart = 0
		tc.FaultStop = uint32(tc.Epochs) + 2
		tc.Tee = func(rec dataplane.RTRecord) { all = append(all, rec) }

		// Re-run the primary service standalone to read its merged list (the
		// driver reports only the rendered surface).
		r := RunStreamTrial(tc, nil)
		if len(all) == 0 {
			t.Fatal("tee saw no records")
		}
		ft, err := topology.NewFatTree(tc.K)
		if err != nil {
			t.Fatal(err)
		}
		table := selectivePathTable(ft, streamMeshPairs(ft, tc.NumFlows))
		checkStreamMatchesBatch(t, all, ft, table, flatThresholds{}, tc.Seed, tc.Windows[0], tc.Epochs,
			func(c rca.Culprit) bool { return c.ContainsSwitch(r.Culprit) })
	})
	for _, kind := range []faults.Kind{faults.MicroBurst} {
		t.Run("trial/"+kind.String(), func(t *testing.T) {
			// Table 1's first trial of the fault at CI's -seed 1000.
			tc := DefaultTrialConfig(harness.TrialSeed(1000, int(kind), 0), kind)
			m := startMARS(tc, nil)
			var all []dataplane.RTRecord
			m.sys.Program.OnRecord = func(_ topology.NodeID, rec dataplane.RTRecord) { all = append(all, rec) }
			gt := m.sys.InjectFault(tc.Fault, tc.FaultStart, tc.FaultDur)
			m.sys.Run(tc.Total)
			epochs := int(tc.Total / dataplane.EpochDuration)
			checkStreamMatchesBatch(t, all, m.sys.FT, m.sys.Paths, m.sys.Analyzer.Thr, tc.Seed, 4, epochs,
				func(c rca.Culprit) bool { return marsMatches(c, gt) })
		})
	}
}

// checkStreamMatchesBatch replays records, in drain order, into a stream
// service of W-epoch windows and scores them in one batch analysis over
// epochs epochs with thr. The batch top-1 must locate the fault (locates),
// and some window's top-1 must be the batch top-1 exactly.
func checkStreamMatchesBatch(t *testing.T, all []dataplane.RTRecord, ft *topology.FatTree, table *pathid.Table,
	thr rca.Thresholds, seed int64, W, epochs int, locates func(rca.Culprit) bool) {
	t.Helper()
	scfg := stream.DefaultConfig(seed)
	scfg.WindowEpochs = W
	svc := stream.New(scfg, ft.PodPartition(), table)
	// Replay in drain order, sealing as the stream advances: once a record
	// of epoch e appears, every record of epoch <= e-2 has already drained
	// (the one-epoch lateness bound), so e-1 and older may finalize.
	cur := uint32(0)
	for _, rec := range all {
		if rec.Epoch > cur {
			svc.CloseEpoch(rec.Epoch - 1)
			cur = rec.Epoch
		}
		svc.Ingest(rec)
	}
	svc.Finish()
	if len(svc.Results()) == 0 {
		t.Fatal("stream produced no windows")
	}

	// Batch verdict: one diagnosis over the entire trace with a recent
	// window covering the whole run.
	rcfg := rca.DefaultConfig()
	rcfg.RecentWindow = netsim.Time(epochs+1) * dataplane.EpochDuration
	an := rca.New(rcfg, table, thr)
	batch := an.AnalyzeWindow(all, netsim.Time(epochs+1)*dataplane.EpochDuration, 1)
	if len(batch) == 0 {
		t.Fatal("batch analyzer produced no culprits")
	}
	if !locates(batch[0]) {
		t.Fatalf("batch top-1 %v does not locate the injected fault", batch[0])
	}

	// Convergence: once the reservoir thresholds and affected-flow sets
	// stabilize, a window's top-1 must reach the batch verdict exactly —
	// same cause, same location.
	var got []string
	for _, w := range svc.Results() {
		if len(w.Culprits) == 0 {
			continue
		}
		c := w.Culprits[0]
		if c.Cause == batch[0].Cause && c.Level == batch[0].Level && c.Flow == batch[0].Flow &&
			topology.Path(c.Location).String() == topology.Path(batch[0].Location).String() {
			return
		}
		got = append(got, c.String())
	}
	t.Fatalf("no window top-1 converged to the batch verdict %v; window tops: %v", batch[0], got)
}
