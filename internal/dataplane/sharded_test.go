package dataplane

import (
	"testing"

	"mars/internal/netsim"
	"mars/internal/topology"
)

// shardFixture builds a k=4 fat-tree with its switches split across two
// resident programs by pod-partition unit parity, mirroring how
// netsim.Sharded assigns units to hook owners.
func shardFixture(t *testing.T) (*topology.FatTree, *topology.Partition, [2]*Program, func(topology.NodeID) int) {
	t.Helper()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	part := ft.PodPartition()
	shardFor := func(sw topology.NodeID) int { return int(part.UnitOf[sw]) % 2 }
	var owned [2][]topology.NodeID
	for _, sw := range ft.Switches() {
		s := shardFor(sw)
		owned[s] = append(owned[s], sw)
	}
	cfg := DefaultProgramConfig()
	var progs [2]*Program
	for s := range progs {
		progs[s] = NewResident(cfg, ft.Topology, nil, nil, owned[s])
	}
	return ft, part, progs, shardFor
}

// Register state exists only on the owning shard's program, and every
// per-switch accessor is safe to call on a non-resident switch.
func TestResidentProgramPartitionsRegisters(t *testing.T) {
	ft, _, progs, shardFor := shardFixture(t)
	flow := FlowID{Src: ft.HostIDs[0], Sink: ft.HostIDs[8]}
	for _, sw := range ft.Switches() {
		home, away := progs[shardFor(sw)], progs[1-shardFor(sw)]
		if !home.Resident(sw) {
			t.Fatalf("switch %d not resident on its owning shard", sw)
		}
		if away.Resident(sw) {
			t.Fatalf("switch %d resident on a foreign shard", sw)
		}
		// Non-resident accessors: no-ops and zero values, never a panic.
		away.SetThreshold(sw, flow, netsim.Millisecond)
		away.FlushSwitch(sw)
		if itFlows(away, sw) != 0 || etEntries(away, sw) != 0 || away.RTSnapshot(nil, sw) != nil {
			t.Fatalf("switch %d reports register state on a foreign shard", sw)
		}
		if d := away.threshold(sw, flow); d != DefaultThreshold {
			t.Fatalf("non-resident threshold = %v, want default", d)
		}
	}
	// Resident programs cover the fabric exactly once.
	total := 0
	for _, p := range progs {
		for _, sw := range ft.Switches() {
			if p.Resident(sw) {
				total++
			}
		}
	}
	if total != ft.NumSwitches() {
		t.Fatalf("resident switches = %d, want %d", total, ft.NumSwitches())
	}
}

// SetThreshold touches only resident switches, and a reboot flush on the
// program that owns the switch wipes the registers where they live.
func TestShardedRegistersRouteFlush(t *testing.T) {
	ft, _, progs, shardFor := shardFixture(t)
	flow := FlowID{Src: ft.HostIDs[0], Sink: ft.HostIDs[8]}
	victim, witness := ft.EdgeIDs[0], ft.EdgeIDs[1]
	for _, p := range progs {
		p.SetThreshold(victim, flow, netsim.Millisecond)
		p.SetThreshold(witness, flow, netsim.Millisecond)
	}
	home := progs[shardFor(victim)]
	if home.threshold(victim, flow) != netsim.Millisecond {
		t.Fatal("threshold not installed on owning shard")
	}
	home.FlushSwitch(victim)
	if d := home.threshold(victim, flow); d != DefaultThreshold {
		t.Fatalf("threshold after the owner's flush = %v, want default", d)
	}
	// Other resident switches keep their thresholds.
	if progs[shardFor(witness)].threshold(witness, flow) != netsim.Millisecond {
		t.Fatal("the flush touched a non-victim switch")
	}
}
