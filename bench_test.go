package mars_test

// Benchmarks regenerating the paper's tables and figures, one per
// artifact (see DESIGN.md's experiment index). These use reduced trial
// counts so `go test -bench=.` completes in minutes; cmd/mars-bench runs
// the full versions.

import (
	"math/rand"
	"testing"

	"mars"
	"mars/internal/experiments"
	"mars/internal/faults"
	"mars/internal/fsm"
	"mars/internal/harness"
	"mars/internal/netsim"
	"mars/internal/reservoir"
	"mars/internal/topology"
)

// BenchmarkTable1FaultLocalization runs one localization trial per fault
// kind for every system (E-T1).
func BenchmarkTable1FaultLocalization(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, kind := range faults.Kinds() {
			sc := mars.DefaultScenario(int64(1000+i), kind)
			for _, sys := range experiments.Systems() {
				experiments.RunTrial(sys, sc)
			}
		}
	}
}

// BenchmarkMARSTrial measures one full MARS trial (detection + diagnosis)
// on the delay scenario.
func BenchmarkMARSTrial(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTrial(experiments.SysMARS, mars.DefaultScenario(int64(42+i), faults.Delay))
	}
}

// BenchmarkFig2LinkUtilization regenerates the utilization CDF (E-F2).
func BenchmarkFig2LinkUtilization(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig2(int64(i + 1))
	}
}

// BenchmarkFig3HeaderAndMemory regenerates the header/memory study (E-F3).
func BenchmarkFig3HeaderAndMemory(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig3()
	}
}

// BenchmarkFig5ThresholdTrace regenerates the threshold illustration (E-F5).
func BenchmarkFig5ThresholdTrace(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig5(int64(i + 1))
	}
}

// BenchmarkFig7FaultSymptoms regenerates the symptom traces (E-F7).
func BenchmarkFig7FaultSymptoms(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig7(int64(i + 1))
	}
}

// BenchmarkFig8AnomalyDetection regenerates the detector comparison (E-F8).
func BenchmarkFig8AnomalyDetection(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig8(int64(i+1), 10, 600)
	}
}

// BenchmarkFig10Resources regenerates the resource-model sweep (E-F10).
func BenchmarkFig10Resources(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig10()
	}
}

// BenchmarkFig11FSMAlgorithms regenerates the miner comparison (E-F11).
func BenchmarkFig11FSMAlgorithms(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig11(int64(i+1), 2000, 1)
	}
}

// BenchmarkAblationSBFL compares scoring formulas (A-2) with one trial
// per fault kind.
func BenchmarkAblationSBFL(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunAblationSBFLWith(harness.Config{}, 1, int64(100+i))
	}
}

// BenchmarkAblationFSMMaxLen compares pattern length caps (A-3).
func BenchmarkAblationFSMMaxLen(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunAblationFSMMaxLenWith(harness.Config{}, 1, int64(100+i))
	}
}

// BenchmarkSimulatorThroughput measures raw event-loop speed: packets
// through a loaded fat-tree with no pipeline attached.
func BenchmarkSimulatorThroughput(b *testing.B) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router := netsim.NewECMPRouter(ft.Topology, uint64(i))
		sim := netsim.New(ft.Topology, router, nil, netsim.DefaultConfig(), int64(i))
		for p := 0; p < 1000; p++ {
			src := ft.HostIDs[p%len(ft.HostIDs)]
			dst := ft.HostIDs[(p*7+3)%len(ft.HostIDs)]
			if src == dst {
				continue
			}
			sim.Send(netsim.Time(p)*10*netsim.Microsecond, src, dst, netsim.FlowKey(p), 700)
		}
		sim.RunAll()
	}
}

// BenchmarkReservoirInput measures the per-sample cost of Algorithm 1 on a
// full reservoir; it is the bench gate's entry for the reservoir layer.
func BenchmarkReservoirInput(b *testing.B) {
	r := reservoir.New(reservoir.DefaultConfig(), rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Input(float64(1000 + i%100))
	}
}

// BenchmarkFSMMiners measures each miner on a realistic abnormal set.
func BenchmarkFSMMiners(b *testing.B) {
	db := make(fsm.Dataset, 2000)
	for i := range db {
		db[i] = fsm.Sequence{fsm.Item(i % 8), fsm.Item(20 + i%2), fsm.Item(30 + i%4), fsm.Item(10 + i%8)}
	}
	params := fsm.Params{MinRelSupport: 0.05, MaxLen: 2}
	for _, m := range fsm.All() {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Mine(db, params)
			}
		})
	}
}

// BenchmarkNewSystem times one k=16 deployment's construction: the fabric,
// every edge pair's shortest paths, the PathID table widened to 16 bits
// (with MAT entries), the router, the data plane and the controller.
func BenchmarkNewSystem(b *testing.B) {
	cfg := mars.DefaultConfig()
	cfg.FatTreeK = 16
	b.Run("K16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mars.NewSystem(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
