package experiments

import (
	"mars"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
	"mars/internal/workload"
)

// NewShardedFabric is the one place the partitioned k-ary fabric is
// wired: the pod partition, one resident MARS program per hook owner, the
// simulator over them, and the deterministic cross-pod mesh. The stream
// tier runs on it.
//
// shards is the owner count, clamped to [1, partition units] as
// netsim.NewSharded clamps it, so program i always pairs with owner i; it
// lays out which program holds which switch's registers and never changes
// simulated output. numFlows flows at ratePPS each run until stop. Every
// program's OnRecord appends its sink records to bufs[i], which the caller
// drains (and truncates) between Run steps. Unit u's records land in
// exactly one buffer (owner u%shards) in deterministic order, so every
// per-unit record sequence is owner-count invariant.
func NewShardedFabric(ft *topology.FatTree, shards int, seed int64, table *pathid.Table,
	numFlows int, ratePPS float64, stop netsim.Time,
) (sh *netsim.Sharded, progs []*dataplane.Program, bufs [][]dataplane.RTRecord) {
	part := ft.PodPartition()
	if shards < 1 {
		shards = 1
	}
	if shards > part.NumUnits {
		shards = part.NumUnits
	}

	// The data plane shares the table's PathID config so the MAT control
	// values that break hash collisions are consistent between the per-hop
	// chain and the sink-side decompression.
	progCfg := dataplane.DefaultProgramConfig()
	progCfg.PathCfg = table.Cfg
	owned := make([][]topology.NodeID, shards)
	for _, sw := range ft.Switches() {
		s := int(part.UnitOf[sw]) % shards
		owned[s] = append(owned[s], sw)
	}
	progs = make([]*dataplane.Program, shards)
	bufs = make([][]dataplane.RTRecord, shards)
	for i := range progs {
		progs[i] = dataplane.NewResident(progCfg, ft.Topology, table, nil, owned[i])
		buf := &bufs[i]
		progs[i].OnRecord = func(_ topology.NodeID, rec dataplane.RTRecord) {
			*buf = append(*buf, rec)
		}
	}

	router := netsim.NewECMPRouter(ft.Topology, uint64(seed))
	sh = netsim.NewSharded(ft.Topology, part, router, func(i int) netsim.Hooks { return progs[i] },
		mars.DefaultConfig().Sim, seed, netsim.ShardedConfig{Shards: shards})

	// Flows install through OnNode so their events and RNG draws stamp with
	// the owning unit: staggered starts, Poisson gaps and trace-shaped
	// sizes drawn from the source unit's RNG stream.
	for i := 0; i < numFlows; i++ {
		src, dst := meshEndpoints(ft, i)
		f := &workload.Flow{
			Src: src, Dst: dst, Key: netsim.FlowKey(i + 1),
			RatePPS: ratePPS,
			Gaps:    workload.GapExponential,
			Start:   netsim.Time(i%97) * 50 * netsim.Microsecond,
			Stop:    stop,
		}
		sh.OnNode(src, f.Install)
	}
	return sh, progs, bufs
}

// meshEndpoints returns flow i's hosts under the deterministic cross-pod
// mesh: source host i (mod hosts), destination 1..K-1 pods away.
func meshEndpoints(ft *topology.FatTree, i int) (src, dst topology.NodeID) {
	hosts := ft.HostIDs
	perPod := len(hosts) / ft.K
	src = hosts[i%len(hosts)]
	dst = hosts[(i%len(hosts)+perPod*(1+i%(ft.K-1)))%len(hosts)]
	return src, dst
}
