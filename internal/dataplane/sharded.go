package dataplane

import "mars/internal/topology"

// ShardedRegisters routes register flushes across a fleet of per-owner
// resident Programs (see NewResident). It implements
// faults.RegisterFlusher: a switch-reboot fault injected during a
// partitioned trial must wipe the registers where they actually live — in
// the program of the switch's hook owner — not on every replica.
//
// ShardFor maps a switch to the index of the owning program in Progs.
// Because FlushSwitch is a no-op on non-resident switches, a wrong route
// would silently miss the flush; the routing therefore mirrors
// netsim.Sharded's ownership map exactly.
type ShardedRegisters struct {
	Progs    []*Program
	ShardFor func(sw topology.NodeID) int
}

// FlushSwitch wipes sw's registers in the owning program.
func (sr *ShardedRegisters) FlushSwitch(sw topology.NodeID) {
	sr.Progs[sr.ShardFor(sw)].FlushSwitch(sw)
}
