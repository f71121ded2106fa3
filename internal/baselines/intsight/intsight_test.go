package intsight

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

func background(sim *netsim.Simulator, ft *topology.FatTree, stop netsim.Time) {
	workload.RandomBackground(sim, ft, workload.BackgroundConfig{
		NumFlows: 96, RatePPS: 220, Gaps: workload.GapExponential,
		Start: 0, Stop: stop, CrossPodBias: 1.0,
		RoundRobinSrc: true, RoundRobinDst: true,
	}, 1)
}

func TestHeaderCostCharged(t *testing.T) {
	sys, sim, ft, _ := setup(t, 1)
	background(sim, ft, 500*netsim.Millisecond)
	sim.Run(netsim.Second)
	if sys.TelemetryBytes == 0 {
		t.Fatal("IntSight charged no telemetry bytes")
	}
	// 33 B per packet per hop: far heavier than MARS's 12 B per telemetry
	// packet. Sanity: per-packet average over hops must be >= 33 B.
	perPkt := float64(sys.TelemetryBytes) / float64(sim.Stats.Delivered)
	if perPkt < 33 {
		t.Errorf("telemetry per packet = %.1f B, want >= 33", perPkt)
	}
}

func TestNoReportsWithoutViolation(t *testing.T) {
	sys, sim, ft, _ := setup(t, 2)
	background(sim, ft, netsim.Second)
	sim.Run(2 * netsim.Second)
	if sys.Detected() {
		t.Skip("background latency crossed the SLO this seed")
	}
	if got := sys.Localize(); got != nil {
		t.Error("localization without SLO violations")
	}
}

func TestMicroBurstCitesContentionPoints(t *testing.T) {
	sys, sim, ft, router := setup(t, 3)
	background(sim, ft, 4*netsim.Second)
	inj := faults.NewInjector(sim, ft, router)
	inj.Inject(faults.MicroBurst, 2*netsim.Second, netsim.Second)
	sim.Run(4 * netsim.Second)
	if !sys.Detected() {
		t.Fatal("burst did not violate the SLO")
	}
	culprits := sys.Localize()
	if len(culprits) == 0 {
		t.Fatal("no culprits")
	}
	hasSwitch := false
	for _, c := range culprits {
		if c.Switch >= 0 {
			hasSwitch = true
		}
	}
	if !hasSwitch {
		t.Error("no contention-point switches cited")
	}
	if sys.DiagnosisBytes == 0 {
		t.Error("no report bytes charged")
	}
}

func TestDropSensedButNotLocalized(t *testing.T) {
	sys, sim, ft, router := setup(t, 4)
	background(sim, ft, 4*netsim.Second)
	inj := faults.NewInjector(sim, ft, router)
	inj.Inject(faults.Drop, 2*netsim.Second, 1500*netsim.Millisecond)
	sim.Run(4 * netsim.Second)
	// Flow-level drop sensing may fire, but without SLO violations there
	// is no localization output — the paper's "-" cell.
	if !sys.Detected() && sys.Localize() != nil {
		t.Error("localization without SLO violations")
	}
	_ = sys.DropSensed()
}
