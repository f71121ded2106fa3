package netsim

import "mars/internal/topology"

// Sharded is a partition view over one Simulator (see DESIGN.md §13). The
// topology is partitioned into units (topology.Partition) and every event
// is ordered by (time, generating unit, per-unit seq), with per-unit RNG
// streams and packet-ID streams — all derived from the partition, so the
// simulated trace is a function of (topology, partition, seed) alone.
//
// Units are assigned round-robin to hook owners ("shards"): owner i's
// Hooks see exactly the events of the nodes it owns, which is what lets a
// caller keep one resident data-plane program per owner. Nothing executes
// per owner; the owner count changes which Hooks value a callback reaches
// and never the simulated output, which the shards=1≡N trace tests pin.
//
// Anything that schedules events or draws random numbers from outside the
// event loop — installing workloads, fault callbacks, sending packets —
// must go through OnNode so it is stamped with the right unit.
type Sharded struct {
	Part *topology.Partition

	sim    *Simulator
	owners int // unit u belongs to owner u % owners
}

// ShardedConfig tunes the view around the physical Config.
type ShardedConfig struct {
	// Shards is the hook-owner count, clamped to [1, partition units]. It
	// selects the owner layout only — never simulated output.
	Shards int
}

// NewSharded builds the simulator over part. Owner i's pipeline is
// hooksFor(i), called once per owner in index order (nil means no pipeline
// anywhere).
func NewSharded(topo *topology.Topology, part *topology.Partition, router *ECMPRouter, hooksFor func(shard int) Hooks, cfg Config, seed int64, scfg ShardedConfig) *Sharded {
	if err := part.Validate(topo); err != nil {
		panic(err)
	}
	n := scfg.Shards
	if n < 1 {
		n = 1
	}
	if n > part.NumUnits {
		n = part.NumUnits
	}
	owned := make([]Hooks, n)
	if hooksFor != nil {
		for i := range owned {
			owned[i] = hooksFor(i)
		}
	}
	unitHooks := make([]Hooks, part.NumUnits)
	for u := range unitHooks {
		unitHooks[u] = owned[u%n]
	}
	return &Sharded{Part: part, owners: n, sim: newSimulator(topo, part, router, unitHooks, cfg, seed)}
}

// NumShards returns the effective hook-owner count.
func (sh *Sharded) NumShards() int { return sh.owners }

// Shard returns the simulator; every owner index names the same one.
func (sh *Sharded) Shard(int) *Simulator { return sh.sim }

// ShardFor returns the hook owner of node n; register flushers and other
// per-switch control actions route through it.
func (sh *Sharded) ShardFor(n topology.NodeID) int {
	return int(sh.Part.UnitOf[n]) % sh.owners
}

// OnNode runs fn against the simulator with n's unit executing, so the
// events fn schedules and the random numbers it draws are stamped with
// that unit. It is for use between Run calls, not from inside an event.
func (sh *Sharded) OnNode(n topology.NodeID, fn func(*Simulator)) {
	sh.sim.enter(n)
	fn(sh.sim)
}

// Run advances the simulation to `until` (inclusive) and returns the final
// time; it is Simulator.Run.
func (sh *Sharded) Run(until Time) Time { return sh.sim.Run(until) }

// Rounds reports barrier rounds; there are none.
func (sh *Sharded) Rounds() int64 { return 0 }

// Close releases nothing: the view owns no goroutines.
func (sh *Sharded) Close() {}

// Events returns the dispatched-event count as a one-element slice.
func (sh *Sharded) Events() []int64 { return []int64{sh.sim.events} }

// MergedStats returns the run's counters.
func (sh *Sharded) MergedStats() Stats { return sh.sim.Stats }

// Mem returns the simulator's memory estimate as a one-element slice.
func (sh *Sharded) Mem() []MemEstimate { return []MemEstimate{sh.sim.Mem()} }

// MemEstimate is a runtime.MemStats-free accounting of the simulator's
// dominant heap consumers, computed by walking the structures themselves.
// Est* fields measure current state; Peak* use high-water marks (the
// agenda's peak length, and the packet pool's total-ever-allocated count —
// pooled packets are never freed, so that IS the live-packet peak).
type MemEstimate struct {
	Switches    int
	AgendaPeak  int
	PacketsLive int
	EstBytes    int64
	PeakBytes   int64
}

// eventBytes is what Mem charges per agenda slot — an element of the
// current bucket, the wheel's slab, the heap or a lane, each an event by
// value: an upper bound on sizeof(event) (48, the slab link included), kept
// at 64 so EXPERIMENTS.md's KB figures stay comparable across PRs.
const eventBytes = 64

// portBytes is what Mem charges per switch port: an upper bound on
// sizeof(portRuntime) (80 with its wiring); runtimeBytes is its charge per
// node, an upper bound on a switchRuntime and a hostWiring together (48).
const (
	portBytes    = 80
	runtimeBytes = 48
)

// Mem computes the estimate. Cold path: it walks the packet pool and every
// port queue.
func (s *Simulator) Mem() MemEstimate {
	const packetBytes = 80
	m := MemEstimate{
		AgendaPeak:  s.agenda.peak,
		PacketsLive: int(s.pktAlloc) - len(s.free),
	}
	var pathBytes int64
	for _, p := range s.free {
		pathBytes += int64(cap(p.TruePath)) * 4
	}
	// Live packets' TruePath capacities are unknown; assume the pool average.
	perPkt := int64(packetBytes)
	if len(s.free) > 0 {
		perPkt += pathBytes / int64(len(s.free))
	}
	var queueBytes, portCount int64
	for i := range s.switches {
		ports := s.switches[i].ports
		if ports == nil {
			continue // a host
		}
		m.Switches++
		portCount += int64(len(ports))
		for j := range ports {
			queueBytes += int64(cap(ports[j].queue)) * 8
		}
	}
	statsBytes := int64(len(s.Stats.LinkBytes))*8 + int64(len(s.Stats.LinkDirBytes))*16
	fixed := int64(len(s.switches))*runtimeBytes + portCount*portBytes + queueBytes + statsBytes + wheelIndexBytes
	m.EstBytes = fixed + int64(s.agenda.capacity())*eventBytes + s.pktAlloc*perPkt
	m.PeakBytes = fixed + int64(m.AgendaPeak)*eventBytes + s.pktAlloc*perPkt
	return m
}
