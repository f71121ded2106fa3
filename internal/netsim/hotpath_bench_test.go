package netsim

import (
	"testing"

	"mars/internal/topology"
)

// BenchmarkNetsimStep measures the event loop's per-packet cost with no
// pipeline attached: one packet sent across the fat-tree fabric and run to
// delivery, covering Send, switch arrival, routing, enqueue, transmit, and
// propagation events. One op is one end-to-end packet.
func BenchmarkNetsimStep(b *testing.B) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	router := NewECMPRouter(ft.Topology, 1)
	sim := New(ft.Topology, router, nil, DefaultConfig(), 1)
	hosts := ft.HostIDs
	// Warm up the event agenda and (post-optimization) the packet pool.
	for i := 0; i < 64; i++ {
		sim.Send(sim.Now(), hosts[i%len(hosts)], hosts[(i*7+3)%len(hosts)], FlowKey(i), 700)
		sim.RunAll()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i*7+3)%len(hosts)]
		if src == dst {
			dst = hosts[(i*7+4)%len(hosts)]
		}
		sim.Send(sim.Now(), src, dst, FlowKey(i), 700)
		sim.RunAll()
	}
}

// BenchmarkShardedStep measures the per-packet cost over the pod
// partition — nine units' stamps and a unit switch on every dispatch —
// next to BenchmarkNetsimStep's single unit. One op is one end-to-end
// cross-pod packet run through a 10 ms Run step.
func BenchmarkShardedStep(b *testing.B) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	sh := NewSharded(ft.Topology, ft.PodPartition(), NewECMPRouter(ft.Topology, 1), nil, DefaultConfig(), 1, ShardedConfig{Shards: 1})
	hosts := ft.HostIDs
	perPod := len(hosts) / ft.K
	var (
		i       int
		horizon Time
	)
	step := func(s *Simulator) {
		src := hosts[i%len(hosts)]
		dst := hosts[(i%len(hosts)+perPod*(1+i%(ft.K-1)))%len(hosts)]
		s.Send(s.Now(), src, dst, FlowKey(i), 700)
	}
	send := func() {
		sh.OnNode(hosts[i%len(hosts)], step)
		horizon += 10 * Millisecond
		sh.Run(horizon)
		i++
	}
	for n := 0; n < 64; n++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		send()
	}
}

// deepHooks counts deliveries for BenchmarkNetsimDeep, tracks how shallow
// the agenda ever got, and stops the run at the target count.
type deepHooks struct {
	NopHooks
	delivered, target int
	minPending        int
}

func (h *deepHooks) OnDeliver(s *Simulator, _ topology.NodeID, _ *Packet) {
	if n := s.agenda.len(); n < h.minPending {
		h.minPending = n
	}
	h.delivered++
}

// BenchmarkNetsimDeep measures the event loop with a deep agenda and a
// table larger than k=4's: 1,024 concurrent cross-pod Poisson flows on a
// k=8 fabric at ~45 % access-link load, so every pop sifts through more than
// a thousand pending events (each flow's next-send timer plus the packets
// in flight) and consecutive Route calls land on different rows. The two
// benchmarks above run one packet at a time — agenda depth at most 2 — and
// cannot see what the agenda and the routing table cost at scale. One op is
// one delivered packet.
func BenchmarkNetsimDeep(b *testing.B) {
	const (
		flows   = 1024
		meanGap = 5 * Millisecond // 200 pps per flow
	)
	ft, err := topology.NewFatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	hooks := &deepHooks{minPending: flows}
	sim := New(ft.Topology, NewECMPRouter(ft.Topology, 1), hooks, DefaultConfig(), 1)
	hosts := ft.HostIDs
	perPod := len(hosts) / ft.K
	for i := 0; i < flows; i++ {
		src := i % len(hosts)
		dst := (src + perPod*(1+i%(ft.K-1))) % len(hosts)
		flow := FlowKey(i)
		var tick func()
		tick = func() {
			sim.Send(sim.Now(), hosts[src], hosts[dst], flow, 700)
			sim.After(Time(sim.RNG().ExpFloat64()*float64(meanGap)), tick)
		}
		sim.After(Time(sim.RNG().ExpFloat64()*float64(meanGap)), tick)
	}
	// Warm-up (~20k packets): fill the packet pool, the port queues and the
	// agenda arrays.
	sim.Run(100 * Millisecond)
	hooks.target = hooks.delivered + b.N
	b.ReportAllocs()
	b.ResetTimer()
	// Stepped runs dispatch what one run to the last horizon would; a
	// 100 us step overshoots b.N by about 20 deliveries.
	for hooks.delivered < hooks.target {
		sim.Run(sim.Now() + 100*Microsecond)
	}
	b.StopTimer()
	if hooks.minPending < 1000 {
		b.Fatalf("agenda fell to %d pending events, want >= 1000 throughout", hooks.minPending)
	}
}
