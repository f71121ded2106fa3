package netsim

import (
	"testing"
	"testing/quick"

	"mars/internal/topology"
)

// linearTopo builds h0 - s0 - s1 - h1.
func linearTopo(t *testing.T) (*topology.Topology, topology.NodeID, topology.NodeID) {
	t.Helper()
	b := topology.NewBuilder()
	s0 := b.AddSwitch("s0", topology.LayerEdge)
	s1 := b.AddSwitch("s1", topology.LayerEdge)
	h0 := b.AddHost("h0")
	h1 := b.AddHost("h1")
	b.Connect(s0, s1)
	b.Connect(s0, h0)
	b.Connect(s1, h1)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, h0, h1
}

func TestSinglePacketDelivery(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	s := New(topo, r, nil, DefaultConfig(), 42)
	s.Send(0, h0, h1, 7, 1000)
	s.RunAll()
	if s.Stats.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", s.Stats.Delivered)
	}
	if s.Stats.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", s.Stats.Dropped)
	}
	// Expected latency: host tx + prop + (proc + tx + prop) per switch x2.
	cfg := DefaultConfig()
	tx := Time(int64(1000) * 8 * int64(Second) / cfg.LinkBandwidthBps)
	want := (tx + cfg.PropDelay) + 2*(cfg.SwitchProcDelay+tx+cfg.PropDelay)
	if got := s.Stats.MeanLatency(); got != want {
		t.Errorf("latency = %v, want %v", got, want)
	}
}

func TestTruePathRecorded(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	var got []topology.NodeID
	// Copy: the simulator recycles the packet (and its slices) after the
	// hook returns.
	h := &captureHooks{onDeliver: func(pkt *Packet) {
		got = append([]topology.NodeID(nil), pkt.TruePath...)
	}}
	s := New(topo, r, h, DefaultConfig(), 1)
	s.Send(0, h0, h1, 1, 500)
	s.RunAll()
	want := topology.Path{0, 1}
	if !want.Equal(topology.Path(got)) {
		t.Errorf("TruePath = %v, want %v", got, want)
	}
}

type captureHooks struct {
	NopHooks
	onDeliver func(*Packet)
	onDrop    func(*Packet, DropReason)
	onForward func(sw topology.NodeID, pkt *Packet, qlen int) Action
}

func (c *captureHooks) OnDeliver(_ *Simulator, _ topology.NodeID, pkt *Packet) {
	if c.onDeliver != nil {
		c.onDeliver(pkt)
	}
}

func (c *captureHooks) OnDrop(_ *Simulator, _ topology.NodeID, _ topology.PortID, pkt *Packet, r DropReason) {
	if c.onDrop != nil {
		c.onDrop(pkt, r)
	}
}

func (c *captureHooks) OnForward(_ *Simulator, sw topology.NodeID, _, _ topology.PortID, pkt *Packet, qlen int) Action {
	if c.onForward != nil {
		return c.onForward(sw, pkt, qlen)
	}
	return ActionForward
}

func TestQueueBuildupIncreasesLatency(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	s := New(topo, r, nil, DefaultConfig(), 42)
	// Blast 50 packets at t=0; they serialize one after another on s0->s1.
	for i := 0; i < 50; i++ {
		s.Send(0, h0, h1, FlowKey(i), 1000)
	}
	s.RunAll()
	if s.Stats.Delivered != 50 {
		t.Fatalf("delivered = %d, want 50", s.Stats.Delivered)
	}
	cfg := DefaultConfig()
	tx := Time(int64(1000) * 8 * int64(Second) / cfg.LinkBandwidthBps)
	base := (tx + cfg.PropDelay) + 2*(cfg.SwitchProcDelay+tx+cfg.PropDelay)
	if mean := s.Stats.MeanLatency(); mean <= base {
		t.Errorf("mean latency %v not above uncongested %v", mean, base)
	}
}

func TestTailDropOnFullQueue(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	cfg := DefaultConfig()
	cfg.QueueCapacity = 4
	s := New(topo, r, nil, cfg, 42)
	for i := 0; i < 200; i++ {
		s.Send(0, h0, h1, FlowKey(i), 1500)
	}
	s.RunAll()
	if s.Stats.Dropped == 0 {
		t.Fatal("expected tail drops with tiny queue")
	}
	if s.Stats.DropsByReason[DropQueueFull] != s.Stats.Dropped {
		t.Errorf("drops by reason: %v", s.Stats.DropsByReason)
	}
	if s.Stats.Delivered+s.Stats.Dropped != s.Stats.Sent {
		t.Errorf("conservation: %d + %d != %d", s.Stats.Delivered, s.Stats.Dropped, s.Stats.Sent)
	}
	// Every dropped packet goes back to the pool: a drop path that skips
	// releasePacket leaves them live once the agenda is empty.
	if live := s.Mem().PacketsLive; live != 0 {
		t.Errorf("%d packets live after drain (%d dropped), want 0", live, s.Stats.Dropped)
	}
}

func TestBlackholeDropsAll(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	s := New(topo, r, nil, DefaultConfig(), 42)
	p, _ := topo.PortTo(0, 1)
	s.SetPortDropProb(0, p, 1) // a blackhole
	for i := 0; i < 10; i++ {
		s.Send(Time(i)*Millisecond, h0, h1, FlowKey(i), 800)
	}
	s.RunAll()
	if s.Stats.Delivered != 0 {
		t.Errorf("delivered = %d, want 0", s.Stats.Delivered)
	}
	if s.Stats.DropsByReason[DropFault] != 10 {
		t.Errorf("fault drops = %d, want 10", s.Stats.DropsByReason[DropFault])
	}
}

func TestRandomDropProbability(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	s := New(topo, r, nil, DefaultConfig(), 7)
	p, _ := topo.PortTo(0, 1)
	s.SetPortDropProb(0, p, 0.5)
	n := 2000
	for i := 0; i < n; i++ {
		s.Send(Time(i)*Millisecond, h0, h1, FlowKey(i), 200)
	}
	s.RunAll()
	frac := float64(s.Stats.DropsByReason[DropFault]) / float64(n)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("drop fraction = %.3f, want ~0.5", frac)
	}
}

func TestRateLimitSlowsDelivery(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)

	run := func(limit float64) Time {
		s := New(topo, r, nil, DefaultConfig(), 42)
		p, _ := topo.PortTo(0, 1)
		s.SetPortRateLimit(0, p, limit)
		for i := 0; i < 100; i++ {
			s.Send(Time(i)*10*Millisecond, h0, h1, FlowKey(i), 500)
		}
		s.RunAll()
		if s.Stats.Delivered != 100 {
			t.Fatalf("delivered = %d", s.Stats.Delivered)
		}
		return s.Stats.MeanLatency()
	}
	fast := run(0)
	slow := run(50) // 50 pps: 100 packets take ~2 s to drain
	if slow <= fast*2 {
		t.Errorf("rate-limited latency %v not >> unlimited %v", slow, fast)
	}
}

func TestExtraLatencyFault(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	base := New(topo, r, nil, DefaultConfig(), 42)
	base.Send(0, h0, h1, 1, 500)
	base.RunAll()

	delayed := New(topo, r, nil, DefaultConfig(), 42)
	delayed.SetSwitchExtraDelay(1, 5*Millisecond)
	delayed.Send(0, h0, h1, 1, 500)
	delayed.RunAll()

	diff := delayed.Stats.MeanLatency() - base.Stats.MeanLatency()
	if diff != 5*Millisecond {
		t.Errorf("delay fault added %v, want 5ms", diff)
	}
}

func TestECMPSplitsFlows(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	r := NewECMPRouter(ft.Topology, 99)
	s := New(ft.Topology, r, nil, DefaultConfig(), 42)
	// Many flows from host 0 to a cross-pod host: paths should use more
	// than one core switch.
	src := ft.HostIDs[0]
	dst := ft.HostIDs[8] // pod 2
	coreSeen := map[topology.NodeID]bool{}
	h := &captureHooks{onDeliver: func(pkt *Packet) {
		for _, sw := range pkt.TruePath {
			if ft.Node(sw).Layer == topology.LayerCore {
				coreSeen[sw] = true
			}
		}
	}}
	s.cur.hooks = h
	for i := 0; i < 64; i++ {
		s.Send(Time(i)*Millisecond, src, dst, FlowKey(i*2654435761), 500)
	}
	s.RunAll()
	if s.Stats.Delivered != 64 {
		t.Fatalf("delivered = %d", s.Stats.Delivered)
	}
	if len(coreSeen) < 2 {
		t.Errorf("ECMP used %d cores, want >= 2", len(coreSeen))
	}
}

func TestECMPFlowStickiness(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	r := NewECMPRouter(ft.Topology, 5)
	s := New(ft.Topology, r, nil, DefaultConfig(), 42)
	src, dst := ft.HostIDs[0], ft.HostIDs[8]
	paths := map[string]bool{}
	h := &captureHooks{onDeliver: func(pkt *Packet) {
		paths[topology.Path(pkt.TruePath).String()] = true
	}}
	s.cur.hooks = h
	for i := 0; i < 20; i++ {
		s.Send(Time(i)*Millisecond, src, dst, FlowKey(12345), 400)
	}
	s.RunAll()
	if len(paths) != 1 {
		t.Errorf("one flow used %d distinct paths, want 1", len(paths))
	}
}

func TestECMPWeightSkew(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	r := NewECMPRouter(ft.Topology, 3)
	// Skew edge switch 0's uplinks 1:9 toward its second aggregation.
	e0 := ft.EdgeIDs[0]
	hops := nextHops(r, e0, ft.HostIDs[8])
	if len(hops) != 2 {
		t.Fatalf("uplink next hops = %d, want 2", len(hops))
	}
	r.SetWeight(e0, hops[1], 9)
	viaHop := map[topology.NodeID]int{}
	s := New(ft.Topology, r, nil, DefaultConfig(), 42)
	h := &captureHooks{onDeliver: func(pkt *Packet) { viaHop[pkt.TruePath[1]]++ }}
	s.cur.hooks = h
	src, dst := ft.HostIDs[0], ft.HostIDs[8]
	n := 600
	for i := 0; i < n; i++ {
		s.Send(Time(i)*Millisecond/4, src, dst, FlowKey(uint64(i)*0x9E3779B97F4A7C15), 300)
	}
	s.RunAll()
	frac := float64(viaHop[hops[1]]) / float64(n)
	if frac < 0.8 {
		t.Errorf("skewed hop carried %.2f of traffic, want >= 0.8", frac)
	}
}

func TestHooksDropByProgram(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	h := &captureHooks{onForward: func(sw topology.NodeID, pkt *Packet, qlen int) Action {
		if sw == 0 && pkt.Flow == 13 {
			return ActionDrop
		}
		return ActionForward
	}}
	s := New(topo, r, h, DefaultConfig(), 42)
	s.Send(0, h0, h1, 13, 100)
	s.Send(0, h0, h1, 14, 100)
	s.RunAll()
	if s.Stats.Delivered != 1 || s.Stats.DropsByReason[DropByProgram] != 1 {
		t.Errorf("delivered=%d byProgram=%d", s.Stats.Delivered, s.Stats.DropsByReason[DropByProgram])
	}
}

func TestExtraBytesCountTowardLinkBytes(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	h := &captureHooks{onForward: func(sw topology.NodeID, pkt *Packet, qlen int) Action {
		if sw == 0 {
			pkt.ExtraBytes = 11
		}
		return ActionForward
	}}
	s := New(topo, r, h, DefaultConfig(), 42)
	s.Send(0, h0, h1, 1, 100)
	s.RunAll()
	interLink, _ := func() (topology.LinkID, bool) {
		p, ok := topo.PortTo(0, 1)
		return topo.Node(topology.NodeID(0)).Ports[p].Link, ok
	}()
	if got := s.Stats.LinkBytes[interLink]; got != 111 {
		t.Errorf("inter-switch link bytes = %d, want 111", got)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) (int64, Time) {
		ft, _ := topology.NewFatTree(4)
		r := NewECMPRouter(ft.Topology, 1)
		s := New(ft.Topology, r, nil, DefaultConfig(), seed)
		p, _ := ft.PortTo(ft.EdgeIDs[0], ft.AggIDs[0])
		s.SetPortDropProb(ft.EdgeIDs[0], p, 0.2)
		for i := 0; i < 300; i++ {
			src := ft.HostIDs[i%len(ft.HostIDs)]
			dst := ft.HostIDs[(i*7+3)%len(ft.HostIDs)]
			if src == dst {
				continue
			}
			s.Send(Time(i)*100*Microsecond, src, dst, FlowKey(i), int32(200+i%800))
		}
		s.RunAll()
		return s.Stats.Delivered, s.Stats.TotalLatency
	}
	d1, l1 := run(77)
	d2, l2 := run(77)
	if d1 != d2 || l1 != l2 {
		t.Errorf("same seed diverged: (%d,%v) vs (%d,%v)", d1, l1, d2, l2)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	s := New(topo, r, nil, DefaultConfig(), 42)
	fired := 0
	s.At(1*Second, func() { fired++ })
	s.At(3*Second, func() { fired++ })
	s.Run(2 * Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 2*Second {
		t.Errorf("now = %v, want 2s", s.Now())
	}
	s.RunAll()
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	_ = h0
	_ = h1
}

// Property: packet conservation holds under arbitrary drop probabilities.
func TestPropertyPacketConservation(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	f := func(seed int64, dropByte uint8, n uint8) bool {
		s := New(topo, r, nil, DefaultConfig(), seed)
		p, _ := topo.PortTo(0, 1)
		s.SetPortDropProb(0, p, float64(dropByte)/255)
		total := int(n)%100 + 1
		for i := 0; i < total; i++ {
			s.Send(Time(i)*200*Microsecond, h0, h1, FlowKey(i), 400)
		}
		s.RunAll()
		return s.Stats.Delivered+s.Stats.Dropped == s.Stats.Sent && s.Stats.Sent == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue depth recorded per hop is always within capacity.
func TestPropertyHopQueueDepthBounded(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	cfg := DefaultConfig()
	cfg.QueueCapacity = 16
	h := &captureHooks{}
	maxSeen := 0
	h.onForward = func(_ topology.NodeID, _ *Packet, qlen int) Action {
		maxSeen = max(maxSeen, qlen)
		return ActionForward
	}
	s := New(topo, r, h, cfg, 11)
	for i := 0; i < 500; i++ {
		s.Send(Time(i)*20*Microsecond, h0, h1, FlowKey(i), 1200)
	}
	s.RunAll()
	if maxSeen > cfg.QueueCapacity+1 {
		t.Errorf("hop queue depth %d exceeds capacity %d", maxSeen, cfg.QueueCapacity)
	}
	if maxSeen == 0 {
		t.Error("expected some queue buildup")
	}
}

func TestSendPanicsOnNonHost(t *testing.T) {
	topo, h0, _ := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	s := New(topo, r, nil, DefaultConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for switch endpoint")
		}
	}()
	s.Send(0, h0, 0, 1, 100) // dst node 0 is a switch
}

func TestLinkDirBytesSplitDirections(t *testing.T) {
	topo, h0, h1 := linearTopo(t)
	r := NewECMPRouter(topo, 1)
	s := New(topo, r, nil, DefaultConfig(), 1)
	s.Send(0, h0, h1, 1, 400) // h0 -> h1 only
	s.RunAll()
	interLink := topo.Node(0).Ports[0].Link // s0-s1
	d := s.Stats.LinkDirBytes[interLink]
	if d[0]+d[1] != s.Stats.LinkBytes[interLink] {
		t.Errorf("directional sum %d+%d != total %d", d[0], d[1], s.Stats.LinkBytes[interLink])
	}
	// Traffic went one way only: exactly one direction carries bytes.
	if (d[0] == 0) == (d[1] == 0) {
		t.Errorf("one-way traffic split %v", d)
	}
	// Reverse traffic fills the other direction.
	s2 := New(topo, r, nil, DefaultConfig(), 1)
	s2.Send(0, h0, h1, 1, 400)
	s2.Send(0, h1, h0, 2, 400)
	s2.RunAll()
	d2 := s2.Stats.LinkDirBytes[interLink]
	if d2[0] == 0 || d2[1] == 0 {
		t.Errorf("bidirectional traffic left a direction empty: %v", d2)
	}
}

// TestPortWiringMatchesTopology: every switch port carries the wiring of
// its topology.Port, and every host's entry names the edge switch and
// port that the graph gives for it.
func TestPortWiringMatchesTopology(t *testing.T) {
	for _, k := range []int{4, 8} {
		ft, err := topology.NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		sim := New(ft.Topology, NewECMPRouter(ft.Topology, 1), nil, DefaultConfig(), 1)
		for i := range ft.Nodes {
			id := topology.NodeID(i)
			if ft.IsSwitch(id) {
				ports := sim.switches[i].ports
				if len(ports) != len(ft.Nodes[i].Ports) {
					t.Fatalf("k=%d s%d: %d port runtimes for %d ports", k, id, len(ports), len(ft.Nodes[i].Ports))
				}
				for p, tp := range ft.Nodes[i].Ports {
					pr := &ports[p]
					l := ft.Links[tp.Link]
					fromA := l.A == id && l.APort == topology.PortID(p)
					if pr.peer != tp.Peer || pr.peerPort != tp.PeerPort || pr.link != tp.Link ||
						pr.peerHost != ft.IsHost(tp.Peer) || (pr.dir == 0) != fromA {
						t.Fatalf("k=%d s%d port %d: wiring {%d %d %d host=%v dir=%d}, topology %+v (from A %v)",
							k, id, p, pr.peer, pr.peerPort, pr.link, pr.peerHost, pr.dir, tp, fromA)
					}
				}
				if sim.hosts[i].edge != -1 {
					t.Fatalf("k=%d switch s%d has a host entry %+v", k, id, sim.hosts[i])
				}
				continue
			}
			edge, ok := ft.EdgeSwitchOf(id)
			port, _ := ft.PortTo(edge, id)
			if !ok || sim.hosts[i] != (hostWiring{edge: edge, port: port}) {
				t.Fatalf("k=%d host %d: entry %+v, topology edge s%d port %d (ok %v)", k, id, sim.hosts[i], edge, port, ok)
			}
			// The host's bytes go on its own link, counted in the
			// direction opposite to the edge port's.
			pr := &sim.switches[edge].ports[port]
			if l := ft.Links[pr.link]; pr.link != ft.Nodes[i].Ports[0].Link || (l.A == id) != (pr.dir^1 == 0) {
				t.Fatalf("k=%d host %d: edge port link %d dir %d, host link %+v", k, id, pr.link, pr.dir, l)
			}
		}
	}
}

func TestScaleK6Works(t *testing.T) {
	// The whole pipeline must run on larger fabrics too.
	ft, err := topology.NewFatTree(6)
	if err != nil {
		t.Fatal(err)
	}
	r := NewECMPRouter(ft.Topology, 1)
	s := New(ft.Topology, r, nil, DefaultConfig(), 1)
	for i := 0; i < 200; i++ {
		src := ft.HostIDs[i%len(ft.HostIDs)]
		dst := ft.HostIDs[(i*13+7)%len(ft.HostIDs)]
		if src == dst {
			continue
		}
		s.Send(Time(i)*50*Microsecond, src, dst, FlowKey(i), 600)
	}
	s.RunAll()
	if s.Stats.Delivered == 0 || s.Stats.Delivered+s.Stats.Dropped != s.Stats.Sent {
		t.Errorf("K=6 conservation: %+v", s.Stats)
	}
}
