package faults

import (
	"strings"
	"testing"

	"mars/internal/netsim"
	"mars/internal/topology"
)

const ms = netsim.Millisecond

// --- Handle guards (revert semantics) ---------------------------------------

func TestHandleGuards(t *testing.T) {
	inj, _, _ := setup(t, 10)
	var applies, reverts int
	h := inj.newHandle(Drop, func() { applies++ }, func() { reverts++ })

	if err := h.Revert(); err == nil {
		t.Fatal("revert of a never-applied injection must error")
	}
	if reverts != 0 {
		t.Fatal("guarded revert must not run the revert hook")
	}
	if err := h.Apply(); err != nil {
		t.Fatal(err)
	}
	if !h.applied || h.reverted {
		t.Fatal("state after apply")
	}
	if err := h.Apply(); err == nil {
		t.Fatal("double apply must error")
	}
	if applies != 1 {
		t.Fatalf("apply hook ran %d times", applies)
	}
	if err := h.Revert(); err != nil {
		t.Fatal(err)
	}
	if err := h.Revert(); err == nil {
		t.Fatal("double revert must error")
	}
	if reverts != 1 {
		t.Fatalf("revert hook ran %d times", reverts)
	}
}

// A manual early revert must not make the scheduled end-of-window revert
// panic — it skips silently.
func TestScheduledEndSkipsAfterManualRevert(t *testing.T) {
	inj, sim, _ := setup(t, 11)
	ep := inj.Apply(Schedule{Injections: []Injection{
		{Kind: Drop, Start: 100 * ms, Dur: 500 * ms},
	}})
	h := ep.Faults[0].GT.Handle
	if h == nil {
		t.Fatal("ground truth must carry the injection handle")
	}
	sim.Run(200 * ms)
	if !h.applied {
		t.Fatal("injection not applied at window start")
	}
	if err := h.Revert(); err != nil {
		t.Fatal(err)
	}
	sim.Run(netsim.Second) // the 600 ms end event must skip, not panic
	if !h.reverted {
		t.Fatal("handle must stay reverted")
	}
}

// The ground truth records the window end explicitly.
func TestGroundTruthEndTime(t *testing.T) {
	inj, _, _ := setup(t, 12)
	ep := inj.Apply(Schedule{Injections: []Injection{
		{Kind: Delay, Start: 300 * ms, Dur: 700 * ms},
	}})
	gt := ep.Faults[0].GT
	if gt.Start != 300*ms || gt.End != 1000*ms {
		t.Fatalf("window = [%v, %v], want [300ms, 1000ms]", gt.Start, gt.End)
	}
}

// --- Parse/String round trip over every kind --------------------------------

func TestParseStringRoundTripAllKinds(t *testing.T) {
	all := AllKinds()
	if len(all) != len(Kinds())+1+len(GrayKinds()) {
		t.Fatalf("AllKinds() = %d entries", len(all))
	}
	seen := map[string]bool{}
	for _, k := range all {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate kind string %q", s)
		}
		seen[s] = true
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got != k {
			t.Errorf("Parse(%q) = %v, want %v", s, got, k)
		}
	}
}

func TestParseErrorListsAllKindsSorted(t *testing.T) {
	_, err := Parse("nope")
	if err == nil {
		t.Fatal("Parse of an unknown fault must error")
	}
	msg := err.Error()
	for _, k := range AllKinds() {
		if !strings.Contains(msg, k.String()) {
			t.Fatalf("error %q does not list %q", msg, k)
		}
	}
	// The listing is deterministically sorted (lexicographic).
	start := strings.Index(msg, "valid: ")
	if start < 0 {
		t.Fatalf("error %q lacks the valid-kinds listing", msg)
	}
	listing := strings.TrimSuffix(msg[start+len("valid: "):], ")")
	names := strings.Split(listing, ", ")
	if len(names) != len(AllKinds()) {
		t.Fatalf("listing has %d names, want %d: %q", len(names), len(AllKinds()), listing)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("kind listing not sorted at %q > %q", names[i-1], names[i])
		}
	}
}

// --- Gray kind behavior ------------------------------------------------------

func TestLinkDownDropsAndRestores(t *testing.T) {
	inj, sim, ft := setup(t, 13)
	ep := inj.Apply(Schedule{Injections: []Injection{
		{Kind: LinkDown, Start: 100 * ms, Dur: 400 * ms},
	}})
	gt := ep.Faults[0].GT
	if gt.Link < 0 || gt.Peer < 0 {
		t.Fatal("link fault must record link and peer")
	}
	if !ft.IsSwitch(gt.Switch) || !ft.IsSwitch(gt.Peer) {
		t.Fatal("link-down endpoints must be switches")
	}
	if !sim.LinkUp(gt.Link) {
		t.Fatal("link must start up")
	}
	sim.Run(200 * ms)
	if sim.LinkUp(gt.Link) {
		t.Fatal("link must be down during the window")
	}
	sim.Run(netsim.Second)
	if !sim.LinkUp(gt.Link) {
		t.Fatal("link must come back after the window")
	}
}

func TestLinkFlapTogglesWithinWindow(t *testing.T) {
	inj, sim, _ := setup(t, 14)
	ep := inj.Apply(Schedule{Injections: []Injection{
		{Kind: LinkFlap, Start: 0, Dur: 2 * netsim.Second},
	}})
	gt := ep.Faults[0].GT
	transitions := 0
	prev := sim.LinkUp(gt.Link)
	for at := netsim.Time(0); at < 2*netsim.Second; at += 50 * ms {
		sim.Run(at + 50*ms)
		if up := sim.LinkUp(gt.Link); up != prev {
			transitions++
			prev = up
		}
	}
	if transitions < 4 {
		t.Fatalf("flap produced only %d link-state transitions", transitions)
	}
	sim.Run(3 * netsim.Second)
	if !sim.LinkUp(gt.Link) {
		t.Fatal("link must end up after the window")
	}
}

func TestSilentDropSetsAndRevertsProbability(t *testing.T) {
	inj, sim, _ := setup(t, 15)
	ep := inj.Apply(Schedule{Injections: []Injection{
		{Kind: SilentDrop, Start: 100 * ms, Dur: 500 * ms},
	}})
	gt := ep.Faults[0].GT
	sim.Run(200 * ms)
	p := sim.PortDropProb(gt.Switch, gt.Port)
	if p < 0.03 || p > 0.12 {
		t.Fatalf("silent drop probability = %v, want in [0.03, 0.12]", p)
	}
	sim.Run(netsim.Second)
	if got := sim.PortDropProb(gt.Switch, gt.Port); got != 0 {
		t.Fatalf("drop probability after revert = %v, want 0", got)
	}
}

type fakeFlusher struct{ flushed []topology.NodeID }

func (f *fakeFlusher) FlushSwitch(sw topology.NodeID) { f.flushed = append(f.flushed, sw) }

func TestSwitchRebootDownsSwitchAndFlushesRegisters(t *testing.T) {
	inj, sim, _ := setup(t, 16)
	fl := &fakeFlusher{}
	inj.Registers = fl
	ep := inj.Apply(Schedule{Injections: []Injection{
		{Kind: SwitchReboot, Start: 100 * ms, Dur: 300 * ms},
	}})
	gt := ep.Faults[0].GT
	// downDrops sends one packet between every pair of hosts and counts
	// the packets a rebooting switch loses.
	downDrops := func() int64 {
		before := sim.Stats.DropsByReason[netsim.DropSwitchDown]
		hosts := sim.Topo.Hosts()
		for i, src := range hosts {
			for j, dst := range hosts {
				if i != j {
					sim.Send(sim.Now(), src, dst, netsim.FlowKey(i*len(hosts)+j), 500)
				}
			}
		}
		sim.Run(sim.Now() + 50*ms)
		return sim.Stats.DropsByReason[netsim.DropSwitchDown] - before
	}
	sim.Run(200 * ms)
	if downDrops() == 0 {
		t.Fatal("switch must be down during the reboot")
	}
	if len(fl.flushed) != 0 {
		t.Fatal("registers must not flush before recovery")
	}
	sim.Run(netsim.Second)
	if n := downDrops(); n != 0 {
		t.Fatalf("switch must recover after the window, lost %d packets", n)
	}
	if len(fl.flushed) != 1 || fl.flushed[0] != gt.Switch {
		t.Fatalf("recovery must flush the rebooted switch once, got %v", fl.flushed)
	}
}

func TestUplinkDegradeEpisodeStructure(t *testing.T) {
	inj, _, ft := setup(t, 17)
	ep := inj.Apply(Schedule{Injections: []Injection{
		{Kind: UplinkDegrade, Start: 100 * ms, Dur: netsim.Second},
	}})
	if len(ep.Faults) != 2 {
		t.Fatalf("uplink-degrade episode has %d faults, want 2", len(ep.Faults))
	}
	root, cons := ep.Faults[0], ep.Faults[1]
	if root.CausedBy != -1 {
		t.Fatal("root must not be caused by another fault")
	}
	if cons.CausedBy != 0 {
		t.Fatalf("consequence CausedBy = %d, want 0", cons.CausedBy)
	}
	if root.GT.Kind != UplinkDegrade || cons.GT.Kind != ECMPImbalance {
		t.Fatalf("episode kinds = %v, %v", root.GT.Kind, cons.GT.Kind)
	}
	if cons.GT.Switch != root.GT.Switch {
		t.Fatal("the ECMP reaction must happen at the degraded switch")
	}
	layer := ft.Node(root.GT.Peer).Layer
	if layer != topology.LayerAggregation && layer != topology.LayerCore {
		t.Errorf("degraded uplink peer layer = %v", layer)
	}
	roots := ep.Roots()
	if len(roots) != 1 || roots[0].Kind != UplinkDegrade {
		t.Fatalf("Roots() = %v", roots)
	}
}

// --- Schedule determinism ----------------------------------------------------

// groundTruths lists every fault of an episode, roots and consequences.
func groundTruths(ep *Episode) []GroundTruth {
	out := make([]GroundTruth, len(ep.Faults))
	for i, f := range ep.Faults {
		out[i] = f.GT
	}
	return out
}

// Two injectors with the same ScheduleSeed materialize identical episodes,
// and the parameters of injection i do not depend on how much randomness
// earlier injections consumed.
func TestApplyScheduleDeterministic(t *testing.T) {
	sched := Schedule{Injections: []Injection{
		{Kind: SilentDrop, Start: 100 * ms, Dur: 500 * ms},
		{Kind: LinkDown, Start: 200 * ms, Dur: 300 * ms},
		{Kind: SwitchReboot, Start: 300 * ms, Dur: 200 * ms},
	}}
	run := func() []GroundTruth {
		inj, _, _ := setup(t, 99)
		inj.ScheduleSeed = 42
		return groundTruths(inj.Apply(sched))
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("episode sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ga, gb := a[i], b[i]
		ga.Handle, gb.Handle = nil, nil
		if ga != gb {
			t.Errorf("fault %d differs: %+v vs %+v", i, ga, gb)
		}
	}
	// Dropping the first injection must not change the second's parameters
	// (per-injection seeding is positional, not stream-order dependent).
	inj, _, _ := setup(t, 99)
	inj.ScheduleSeed = 42
	solo := groundTruths(inj.Apply(Schedule{Injections: sched.Injections[:2]}))
	sa, sb := a[1], solo[1]
	sa.Handle, sb.Handle = nil, nil
	if sa != sb {
		t.Errorf("injection 1 depends on schedule prefix: %+v vs %+v", sa, sb)
	}
}
