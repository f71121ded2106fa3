package netsim

import (
	"testing"

	"mars/internal/topology"
)

// TestNetsimStepAllocs pins the end-to-end per-packet allocation count of
// the bare event loop at zero: with the typed-event agenda, the packet
// pool, and the head-indexed port queues, a warmed simulator must route a
// packet from host to host without touching the heap. If this fails, a
// hot-path change reintroduced a per-packet allocation — fix the change,
// do not raise the pin.
func TestNetsimStepAllocs(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	router := NewECMPRouter(ft.Topology, 1)
	sim := New(ft.Topology, router, nil, DefaultConfig(), 1)
	hosts := ft.HostIDs
	// Warm the agenda backing array, the packet pool, and every port
	// queue the workload below will traverse.
	for i := 0; i < 256; i++ {
		sim.Send(sim.Now(), hosts[i%len(hosts)], hosts[(i*7+3)%len(hosts)], FlowKey(i), 700)
		sim.RunAll()
	}
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
		t.Errorf("netsim end-to-end packet allocates %.2f objects/op, want 0", avg)
	}
}

// TestNetsimStepEventCount pins the events BenchmarkNetsimStep's workload
// dispatches: 1,000 packets on the k=4 fabric, the benchmark's
// source/destination pattern. The count is the event loop's work per
// packet, which ns/op only estimates: 13 on average. A change that moves
// it must say so.
func TestNetsimStepEventCount(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sim := New(ft.Topology, NewECMPRouter(ft.Topology, 1), nil, DefaultConfig(), 1)
	hosts := ft.HostIDs
	const packets = 1000
	for i := 0; i < packets; i++ {
		sim.Send(sim.Now(), hosts[i%len(hosts)], hosts[(i*7+3)%len(hosts)], FlowKey(i), 700)
		sim.RunAll()
	}
	if want := int64(13000); sim.events != want || sim.Stats.Delivered != packets {
		t.Errorf("%d packets delivered in %d events (%.2f per packet), want %d in %d",
			sim.Stats.Delivered, sim.events, float64(sim.events)/packets, packets, want)
	}
}
