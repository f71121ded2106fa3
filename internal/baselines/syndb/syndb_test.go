package syndb

import (
	"testing"

	"mars/internal/faults"
	"mars/internal/netsim"
	"mars/internal/topology"
	"mars/internal/workload"
)

func setup(t *testing.T, seed int64) (*System, *netsim.Simulator, *topology.FatTree, *netsim.ECMPRouter) {
	t.Helper()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(ft.Topology)
	router := netsim.NewECMPRouter(ft.Topology, uint64(seed))
	cfg := netsim.Config{
		LinkBandwidthBps:     14_000_000,
		HostLinkBandwidthBps: 100_000_000,
		PropDelay:            10 * netsim.Microsecond,
		SwitchProcDelay:      5 * netsim.Microsecond,
		QueueCapacity:        128,
	}
	sim := netsim.New(ft.Topology, router, sys, cfg, seed)
	return sys, sim, ft, router
}

func run(t *testing.T, seed int64, kind faults.Kind) (*System, faults.GroundTruth) {
	sys, sim, ft, router := setup(t, seed)
	workload.RandomBackground(sim, ft, workload.BackgroundConfig{
		NumFlows: 96, RatePPS: 220, Gaps: workload.GapExponential,
		Start: 0, Stop: 4 * netsim.Second, CrossPodBias: 1.0,
		RoundRobinSrc: true, RoundRobinDst: true,
	}, 1)
	inj := faults.NewInjector(sim, ft, router)
	gt := inj.Inject(kind, 2*netsim.Second, 1500*netsim.Millisecond)
	sim.Run(4 * netsim.Second)
	return sys, gt
}

func rankOf(culprits []Culprit, sw topology.NodeID) int {
	for i, c := range culprits {
		if c.Switch == sw {
			return i + 1
		}
	}
	return 0
}

func TestZeroTelemetryHugeDiagnosis(t *testing.T) {
	sys, _ := run(t, 1, faults.Delay)
	if sys.TelemetryBytes != 0 {
		t.Errorf("SyNDB should add no INT header, got %d B", sys.TelemetryBytes)
	}
	if sys.DiagnosisBytes < 1<<20 {
		t.Errorf("p-record streaming = %d B, expected MBs", sys.DiagnosisBytes)
	}
}

func TestExpertDelayQueryFindsSwitch(t *testing.T) {
	sys, gt := run(t, 2, faults.Delay)
	r := rankOf(sys.Localize(QueryDelay), gt.Switch)
	if r < 1 || r > 2 {
		t.Errorf("delay query ranked true switch %d", r)
	}
}

func TestExpertDropQueryFindsSwitch(t *testing.T) {
	sys, gt := run(t, 3, faults.Drop)
	r := rankOf(sys.Localize(QueryDrop), gt.Switch)
	if r < 1 || r > 2 {
		t.Errorf("drop query ranked true switch %d", r)
	}
}

func TestExpertProcessRateQuery(t *testing.T) {
	sys, gt := run(t, 4, faults.ProcessRateDecrease)
	r := rankOf(sys.Localize(QueryProcessRate), gt.Switch)
	if r < 1 || r > 3 {
		t.Errorf("process-rate query ranked true switch %d", r)
	}
}

func TestMicroBurstQueryRanksFlows(t *testing.T) {
	sys, gt := run(t, 5, faults.MicroBurst)
	culprits := sys.Localize(QueryMicroBurst)
	if len(culprits) == 0 {
		t.Fatal("no culprits")
	}
	// The burst flow should rank well by peak/median rate.
	want := gt.BurstSrcEdge
	found := 0
	for i, c := range culprits {
		if i >= 5 {
			break
		}
		if c.Switch == -1 && c.FlowID.Src == want && c.FlowID.Sink == gt.BurstSinkEdge {
			found = i + 1
			break
		}
	}
	if found == 0 {
		t.Logf("burst flow not in top-5 (acceptable per paper's 44%% R@1); head: %v", culprits[:3])
	}
}

func TestQueriesDeterministic(t *testing.T) {
	a, _ := run(t, 6, faults.Delay)
	b, _ := run(t, 6, faults.Delay)
	la, lb := a.Localize(QueryDelay), b.Localize(QueryDelay)
	if len(la) != len(lb) {
		t.Fatalf("lengths differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i].Switch != lb[i].Switch {
			t.Fatalf("order differs at %d", i)
		}
	}
}
