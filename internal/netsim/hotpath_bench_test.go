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
