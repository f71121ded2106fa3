package mars

import (
	"testing"

	"mars/internal/netsim"
	"mars/internal/topology"
)

// dropLog is a netsim.Hooks that keeps where and why each packet was
// dropped.
type dropLog struct {
	netsim.NopHooks
	at      []topology.NodeID
	ports   []topology.PortID
	reasons []netsim.DropReason
}

func (d *dropLog) OnDrop(_ *netsim.Simulator, sw topology.NodeID, port topology.PortID, _ *netsim.Packet, r netsim.DropReason) {
	d.at = append(d.at, sw)
	d.ports = append(d.ports, port)
	d.reasons = append(d.reasons, r)
}

// TestProgramSimPhysics checks the simulator at the link parameters every
// program runs, DefaultConfig().Sim (a 14 Mb/s fabric, 100 Mb/s host
// links, 128-packet queues), with no data plane attached: a lone
// cross-pod packet's latency is its closed form, and a burst of one flow
// tail-drops at the edge uplink exactly what its queue cannot hold.
func TestProgramSimPhysics(t *testing.T) {
	cfg := DefaultConfig().Sim
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := ft.HostIDs[0], ft.HostIDs[len(ft.HostIDs)-1]
	edge := ft.Topology.Neighbors(src)[0]
	if ft.PodOf(edge) == ft.PodOf(ft.Topology.Neighbors(dst)[0]) {
		t.Fatalf("hosts %d and %d share a pod", src, dst)
	}
	const size = 1500
	tx := func(bps int64) netsim.Time { return netsim.Time(size * 8 * int64(netsim.Second) / bps) }
	hostTx, fabricTx := tx(cfg.HostLinkBandwidthBps), tx(cfg.LinkBandwidthBps)
	hop := func(tx netsim.Time) netsim.Time { return cfg.SwitchProcDelay + tx + cfg.PropDelay }

	t.Run("latency", func(t *testing.T) {
		s := netsim.New(ft.Topology, netsim.NewECMPRouter(ft.Topology, 1), nil, cfg, 1)
		s.Send(0, src, dst, 1, size)
		s.RunAll()
		// The source NIC's serialization and the access link, then edge,
		// aggregation, core and aggregation switches forward onto fabric
		// links, and the destination edge onto its host link.
		want := hostTx + cfg.PropDelay + 4*hop(fabricTx) + hop(hostTx)
		if s.Stats.Delivered != 1 || s.Stats.MeanLatency() != want {
			t.Fatalf("delivered %d at a latency of %v, want 1 at %v", s.Stats.Delivered, s.Stats.MeanLatency(), want)
		}
	})

	t.Run("tail drop", func(t *testing.T) {
		drops := &dropLog{}
		s := netsim.New(ft.Topology, netsim.NewECMPRouter(ft.Topology, 1), drops, cfg, 1)
		const burst = 200
		for i := 0; i < burst; i++ {
			s.Send(0, src, dst, 1, size)
		}
		s.RunAll()
		// The source NIC serializes ideally, so the burst reaches the
		// edge at once: one packet on the wire, QueueCapacity waiting.
		want := burst - (cfg.QueueCapacity + 1)
		if want != 71 || int(s.Stats.Dropped) != want || s.Stats.DropsByReason[netsim.DropQueueFull] != s.Stats.Dropped {
			t.Fatalf("%d of %d dropped (%v), want %d, all queue-full", s.Stats.Dropped, burst, s.Stats.DropsByReason, want)
		}
		for i := range drops.at {
			peer := ft.Topology.Node(drops.at[i]).Ports[drops.ports[i]].Peer
			if drops.at[i] != edge || ft.Topology.Node(peer).Layer != topology.LayerAggregation || drops.reasons[i] != netsim.DropQueueFull {
				t.Fatalf("drop %d at s%d toward %d (%v), want at the source edge s%d toward an aggregation switch", i, drops.at[i], peer, drops.reasons[i], edge)
			}
		}
		if s.Stats.Delivered != int64(burst-want) {
			t.Fatalf("delivered %d of %d", s.Stats.Delivered, burst)
		}
	})
}
