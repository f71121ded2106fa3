package netsim

import (
	"slices"
	"testing"

	"mars/internal/topology"
)

func linkStateEnv(t *testing.T) (*Simulator, *topology.FatTree) {
	t.Helper()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	router := NewECMPRouter(ft.Topology, 7)
	return New(ft.Topology, router, nil, DefaultConfig(), 7), ft
}

func TestSetLinkUpDropsTraversingPackets(t *testing.T) {
	sim, ft := linkStateEnv(t)
	links := ft.InterSwitchLinks()
	if len(links) == 0 {
		t.Fatal("fat-tree has no inter-switch links")
	}
	// Down every inter-switch link: no cross-edge packet can be delivered,
	// and every loss must be accounted as DropLinkDown.
	for _, l := range links {
		sim.SetLinkUp(l, false)
		if sim.LinkUp(l) {
			t.Fatalf("link %d still up", l)
		}
	}
	hosts := ft.HostIDs
	sent := 0
	for i := 0; i < 64; i++ {
		src, dst := hosts[i%len(hosts)], hosts[(i*7+3)%len(hosts)]
		if src == dst {
			continue
		}
		sim.Send(sim.Now(), src, dst, FlowKey(i), 700)
		sent++
	}
	sim.RunAll()
	down := sim.Stats.DropsByReason[DropLinkDown]
	delivered := sim.Stats.Delivered
	// Same-pod same-edge pairs can still deliver; anything that crossed a
	// switch-to-switch link must have died with the link-down reason.
	if down == 0 {
		t.Fatal("no packets dropped with link-down reason")
	}
	if int(delivered)+int(down) != sent {
		t.Fatalf("delivered %d + linkDown %d != sent %d", delivered, down, sent)
	}
	// Restore and verify traffic flows again.
	for _, l := range links {
		sim.SetLinkUp(l, true)
	}
	before := sim.Stats.Delivered
	sim.Send(sim.Now(), hosts[0], hosts[len(hosts)-1], FlowKey(999), 700)
	sim.RunAll()
	if sim.Stats.Delivered != before+1 {
		t.Fatal("restored link must deliver again")
	}
}

// dropSite is where and why one OnDrop fired.
type dropSite struct {
	sw     topology.NodeID
	port   topology.PortID
	reason DropReason
}

type dropSites struct {
	NopHooks
	at []dropSite
}

func (h *dropSites) OnDrop(_ *Simulator, sw topology.NodeID, port topology.PortID, _ *Packet, r DropReason) {
	h.at = append(h.at, dropSite{sw, port, r})
}

// TestSetLinkUpDropsAccessLinkBothWays: a lowered access link loses what
// its host sends as well as what is sent to it. Both losses are link-down
// drops at the edge switch's access port, and neither packet is counted
// on the link.
func TestSetLinkUpDropsAccessLinkBothWays(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	hooks := &dropSites{}
	sim := New(ft.Topology, NewECMPRouter(ft.Topology, 7), hooks, DefaultConfig(), 7)
	host, other := ft.HostIDs[0], ft.HostIDs[len(ft.HostIDs)-1]
	edge, _ := ft.EdgeSwitchOf(host)
	port, _ := ft.PortTo(edge, host)
	link := ft.Node(edge).Ports[port].Link
	sim.SetLinkUp(link, false)
	if sim.LinkUp(link) {
		t.Fatalf("access link %d still up", link)
	}
	sim.Send(sim.Now(), host, other, FlowKey(1), 700) // from the host
	sim.Send(sim.Now(), other, host, FlowKey(2), 700) // to the host
	sim.RunAll()
	want := []dropSite{{edge, port, DropLinkDown}, {edge, port, DropLinkDown}}
	if !slices.Equal(hooks.at, want) {
		t.Fatalf("drops at %v, want %v", hooks.at, want)
	}
	if sim.Stats.Delivered != 0 || sim.Stats.LinkBytes[link] != 0 {
		t.Fatalf("delivered %d, %d bytes on the downed link", sim.Stats.Delivered, sim.Stats.LinkBytes[link])
	}
	sim.SetLinkUp(link, true)
	sim.Send(sim.Now(), host, other, FlowKey(3), 700)
	sim.Send(sim.Now(), other, host, FlowKey(4), 700)
	sim.RunAll()
	if sim.Stats.Delivered != 2 || len(hooks.at) != 2 {
		t.Fatalf("restored access link: delivered %d, %d drops", sim.Stats.Delivered, len(hooks.at))
	}
	if d := sim.Stats.LinkDirBytes[link]; d[0] == 0 || d[1] == 0 {
		t.Fatalf("restored access link carried %v by direction, want both", d)
	}
}

func TestSetSwitchDownDropsAtIngress(t *testing.T) {
	sim, ft := linkStateEnv(t)
	// Down the first edge switch: its hosts lose all connectivity.
	edge := ft.EdgeIDs[0]
	sim.SetSwitchDown(edge, true)
	if !sim.SwitchDown(edge) {
		t.Fatal("switch not marked down")
	}
	var under []topology.NodeID
	for _, h := range ft.HostIDs {
		for _, p := range ft.Node(h).Ports {
			if p.Peer == edge {
				under = append(under, h)
			}
		}
	}
	if len(under) == 0 {
		t.Fatal("no hosts under the edge switch")
	}
	other := ft.HostIDs[len(ft.HostIDs)-1]
	sim.Send(sim.Now(), under[0], other, FlowKey(1), 700)
	sim.RunAll()
	if sim.Stats.Delivered != 0 {
		t.Fatal("packet delivered through a down switch")
	}
	if sim.Stats.DropsByReason[DropSwitchDown] != 1 {
		t.Fatalf("switch-down drops = %d, want 1", sim.Stats.DropsByReason[DropSwitchDown])
	}
	sim.SetSwitchDown(edge, false)
	sim.Send(sim.Now(), under[0], other, FlowKey(2), 700)
	sim.RunAll()
	if sim.Stats.Delivered != 1 {
		t.Fatal("recovered switch must forward again")
	}
}

func TestDropReasonStringsGray(t *testing.T) {
	if DropLinkDown.String() != "link-down" || DropSwitchDown.String() != "switch-down" {
		t.Fatalf("gray drop reason strings = %q, %q", DropLinkDown, DropSwitchDown)
	}
}

// TestNetsimStepAllocsWithDynamicLinkState proves the gray-failure link
// and switch state checks keep the hot path allocation-free: the same
// zero-allocs pin as TestNetsimStepAllocs, but with a link downed and
// restored mid-warmup so the down-flag branches are exercised, and with
// one unrelated link held down during measurement.
func TestNetsimStepAllocsWithDynamicLinkState(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	router := NewECMPRouter(ft.Topology, 1)
	sim := New(ft.Topology, router, nil, DefaultConfig(), 1)
	hosts := ft.HostIDs
	links := ft.InterSwitchLinks()
	for i := 0; i < 256; i++ {
		if i == 64 {
			sim.SetLinkUp(links[0], false)
			sim.SetSwitchDown(ft.AggIDs[0], true)
		}
		if i == 128 {
			sim.SetLinkUp(links[0], true)
			sim.SetSwitchDown(ft.AggIDs[0], false)
		}
		sim.Send(sim.Now(), hosts[i%len(hosts)], hosts[(i*7+3)%len(hosts)], FlowKey(i), 700)
		sim.RunAll()
	}
	sim.SetLinkUp(links[len(links)-1], false)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		src := hosts[i%len(hosts)]
		dst := hosts[(i*7+3)%len(hosts)]
		if src == dst {
			dst = hosts[(i*7+4)%len(hosts)]
		}
		sim.Send(sim.Now(), src, dst, FlowKey(i), 700)
		sim.RunAll()
		i++
	})
	if avg != 0 {
		t.Errorf("hot path with dynamic link state allocates %.2f objects/op, want 0", avg)
	}
}
