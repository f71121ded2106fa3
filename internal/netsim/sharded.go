package netsim

import (
	"fmt"
	"math/rand"
	"runtime"

	"mars/internal/topology"
)

// Sharded runs one simulation split across N shard simulators under a
// conservative-lookahead barrier protocol (see DESIGN.md §"Sharded
// engine"). The topology is partitioned into units (topology.Partition);
// units are assigned round-robin to shards, and each shard owns its
// units' switch state, event heap, RNG streams, and packet pool.
//
// Correctness rests on three facts:
//
//  1. Ownership is total: dispatching an event only touches state of the
//     event's owning unit (plus per-shard counters that merge
//     commutatively), so shards never race on simulated state.
//  2. The only cross-unit event kind is evPropagate, scheduled exactly
//     one Cfg.PropDelay ahead. Running all shards over a window no wider
//     than PropDelay and exchanging outboxes at the barrier therefore
//     never delivers an event into a window that has already executed.
//  3. Events are globally ordered by (time, generating unit, per-unit
//     seq) — all three derived from the partition, not the shard count —
//     and each shard's heap pops its local events in exactly that order.
//     Mailbox merge order is irrelevant: the heap re-establishes the
//     total order on insert.
//
// Together these make the simulated trace — stats, packet IDs, RNG draws,
// hook invocations per switch — invariant under the shard count, which
// the shards=1≡N digest tests pin.
//
// Mid-run mutation must go through OnNode (or target state owned by a
// single unit); Stop and cross-unit toggles like SetLinkUp on a
// cross-shard link are not supported while Run is executing.
type Sharded struct {
	Topo *topology.Topology
	Part *topology.Partition
	Cfg  Config

	shards  []*Simulator
	shardOf []int32 // unit -> shard
	rounds  int64
	events  []int64 // per-shard dispatched-event counts
	horizon Time    // end of the last completed Run window

	serial   bool
	progress ShardProgress

	// Worker pool (parallel mode): one goroutine per shard, fed window
	// ends over cmd and reporting event counts over res. Started lazily on
	// the first parallel Run; Close shuts it down.
	cmd     []chan Time
	res     chan shardDone
	started bool
}

type shardDone struct {
	shard int
	n     int64
}

// ShardProgress observes barrier rounds: now is the window end just
// completed and events the cumulative per-shard dispatch counts. Called
// from the coordinator between rounds, so implementations need no locking;
// progress output must never feed back into simulation state.
type ShardProgress func(now Time, events []int64)

// ShardedConfig tunes the engine around the physical Config.
type ShardedConfig struct {
	// Shards is the shard count, clamped to [1, partition units]. The
	// count changes wall-clock behavior only — never simulated output.
	Shards int
	// Serial forces barrier rounds to run shard-by-shard on the calling
	// goroutine (no worker pool). Used by the alloc guard, and the
	// automatic choice when only one shard exists or GOMAXPROCS is 1.
	Serial bool
	// Progress, if non-nil, is invoked every progressEvery rounds.
	Progress ShardProgress
}

// progressEvery is the barrier-round period of ShardedConfig.Progress.
const progressEvery = 4096

// NewSharded builds the sharded engine. Every shard gets its own
// Simulator with hooks from hooksFor (nil means no pipeline anywhere);
// router is shared and must be read-only during Run (ECMPRouter is).
// Cross-shard safety requires a positive propagation delay — it is the
// conservative lookahead.
func NewSharded(topo *topology.Topology, part *topology.Partition, router Router, hooksFor func(shard int) Hooks, cfg Config, seed int64, scfg ShardedConfig) *Sharded {
	if cfg.PropDelay <= 0 {
		panic("netsim: sharded execution requires PropDelay > 0 (it is the conservative lookahead)")
	}
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
	sh := &Sharded{
		Topo:     topo,
		Part:     part,
		Cfg:      cfg,
		shards:   make([]*Simulator, n),
		shardOf:  make([]int32, part.NumUnits),
		events:   make([]int64, n),
		serial:   scfg.Serial || n == 1 || runtime.GOMAXPROCS(0) == 1,
		progress: scfg.Progress,
	}
	for u := range sh.shardOf {
		sh.shardOf[u] = int32(u % n)
	}
	for i := 0; i < n; i++ {
		var hooks Hooks
		if hooksFor != nil {
			hooks = hooksFor(i)
		}
		s := newShardSimulator(topo, part, router, hooks, cfg, i, sh.shardOf)
		// Per-unit RNG streams for this shard's owned units. Unit 0 keeps
		// the raw seed so a single-unit partition reproduces the classic
		// simulator's stream exactly.
		for u := i; u < part.NumUnits; u += n {
			s.shard.rngs[u] = rand.New(rand.NewSource(unitSeed(seed, u)))
		}
		sh.shards[i] = s
	}
	return sh
}

// unitSeed derives unit u's RNG seed; unit 0 gets the base seed verbatim.
func unitSeed(seed int64, u int) int64 {
	const golden = uint64(0x9E3779B97F4A7C15)
	return seed ^ int64(uint64(u)*golden)
}

// newShardSimulator builds one shard's Simulator: full per-link stats
// arrays (merged by summation), but port runtime only for owned switches —
// the dominant per-switch memory — so shard memory scales with its share
// of the fabric.
func newShardSimulator(topo *topology.Topology, part *topology.Partition, router Router, hooks Hooks, cfg Config, id int, shardOf []int32) *Simulator {
	if hooks == nil {
		hooks = NopHooks{}
	}
	s := &Simulator{
		Topo:   topo,
		Router: router,
		Cfg:    cfg,
		hooks:  hooks,
	}
	s.Stats.LinkBytes = make([]int64, len(topo.Links))
	s.Stats.LinkDirBytes = make([][2]int64, len(topo.Links))
	s.switches = make([]switchRuntime, len(topo.Nodes))
	for i := range topo.Nodes {
		if topo.Nodes[i].Kind == topology.KindSwitch && shardOf[part.UnitOf[i]] == int32(id) {
			s.switches[i].ports = make([]portRuntime, len(topo.Nodes[i].Ports))
		}
	}
	s.shard = &shardCtx{
		id:       int32(id),
		unitOf:   part.UnitOf,
		shardOf:  shardOf,
		unitSeq:  make([]uint64, part.NumUnits),
		unitPkt:  make([]uint64, part.NumUnits),
		rngs:     make([]*rand.Rand, part.NumUnits),
		numUnits: uint64(part.NumUnits),
		outbox:   make([][]event, numShards(shardOf)),
	}
	return s
}

func numShards(shardOf []int32) int {
	max := int32(0)
	for _, s := range shardOf {
		if s > max {
			max = s
		}
	}
	return int(max) + 1
}

// NumShards returns the effective shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Shard returns shard i's simulator (tests and memory accounting).
func (sh *Sharded) Shard(i int) *Simulator { return sh.shards[i] }

// ShardFor returns the shard that owns node n's state; register flushers
// and other per-switch control actions route through it.
func (sh *Sharded) ShardFor(n topology.NodeID) int {
	return int(sh.shardOf[sh.Part.UnitOf[n]])
}

// OnNode runs fn against the simulator shard that owns n, with the
// generation context (unit stamp, RNG stream) set to n's unit. All
// pre-run setup — installing workloads, scheduling fault callbacks,
// sending packets — must go through here so scheduled events land on the
// owning shard with shard-count-invariant stamps. It must not be called
// while Run is executing.
func (sh *Sharded) OnNode(n topology.NodeID, fn func(*Simulator)) {
	u := sh.Part.UnitOf[n]
	s := sh.shards[sh.shardOf[u]]
	s.shard.curUnit = u
	s.rng = s.shard.rngs[u]
	fn(s)
}

// Rounds returns the number of barrier rounds executed so far. The round
// sequence is determined by pending event times alone, so it too is
// invariant under the shard count.
func (sh *Sharded) Rounds() int64 { return sh.rounds }

// Events returns the cumulative per-shard dispatched-event counts.
func (sh *Sharded) Events() []int64 {
	out := make([]int64, len(sh.events))
	copy(out, sh.events)
	return out
}

// MergedStats sums the per-shard stats into one Stats. Every counter is
// incremented by exactly one shard per underlying occurrence, so the sums
// equal the sequential run's counters.
func (sh *Sharded) MergedStats() Stats {
	var out Stats
	out.LinkBytes = make([]int64, len(sh.Topo.Links))
	out.LinkDirBytes = make([][2]int64, len(sh.Topo.Links))
	for _, s := range sh.shards {
		st := &s.Stats
		for i, b := range st.LinkBytes {
			out.LinkBytes[i] += b
		}
		for i, d := range st.LinkDirBytes {
			out.LinkDirBytes[i][0] += d[0]
			out.LinkDirBytes[i][1] += d[1]
		}
		out.Sent += st.Sent
		out.Delivered += st.Delivered
		out.Dropped += st.Dropped
		for i, n := range st.DropsByReason {
			out.DropsByReason[i] += n
		}
		out.TotalLatency += st.TotalLatency
	}
	return out
}

// Run advances the whole simulation to `until` (inclusive, matching the
// sequential Simulator.Run) and returns it. Rounds are windows of the
// conservative lookahead Δ = Cfg.PropDelay aligned to the Δ grid: every
// shard drains its local events below the window end, the coordinator
// exchanges outbox events at the barrier, and empty stretches of the
// timeline are skipped by re-aligning to the earliest pending event.
func (sh *Sharded) Run(until Time) Time {
	delta := sh.Cfg.PropDelay
	sh.exchange() // events parked in outboxes by a previous Run's tail
	for {
		next, ok := sh.minPending()
		if !ok || next > until {
			break
		}
		end := next - next%delta + delta
		if end > until+1 {
			end = until + 1
		}
		sh.runRound(end)
		sh.exchange()
		sh.rounds++
		if sh.progress != nil && sh.rounds%progressEvery == 0 {
			sh.progress(end, sh.events)
		}
	}
	for _, s := range sh.shards {
		if s.now < until {
			s.now = until
		}
	}
	sh.horizon = until
	return until
}

// minPending returns the earliest event time across all shard heaps.
// Outboxes are empty here (exchange runs before each scan), so the heaps
// hold the entire pending set.
func (sh *Sharded) minPending() (Time, bool) {
	var (
		min Time
		any bool
	)
	for _, s := range sh.shards {
		if t, ok := s.agenda.peekTime(); ok && (!any || t < min) {
			min, any = t, true
		}
	}
	return min, any
}

// runRound executes one barrier window on every shard.
func (sh *Sharded) runRound(end Time) {
	if sh.serial {
		for i, s := range sh.shards {
			sh.events[i] += s.RunShardWindow(end)
		}
		return
	}
	if !sh.started {
		sh.start()
	}
	for i := range sh.shards {
		sh.cmd[i] <- end
	}
	for range sh.shards {
		d := <-sh.res
		sh.events[d.shard] += d.n
	}
}

// start spins up the persistent worker pool. Workers only ever run
// between a cmd send and the matching res receive, so the coordinator and
// a worker never touch a shard concurrently.
func (sh *Sharded) start() {
	sh.cmd = make([]chan Time, len(sh.shards))
	sh.res = make(chan shardDone, len(sh.shards))
	for i := range sh.shards {
		sh.cmd[i] = make(chan Time)
		//mars:sync one worker per shard, lock-stepped by the coordinator: a window runs only between cmd send and res receive, shards touch disjoint unit state, and the digest tests diff shards=1 against shards=N byte for byte
		go func(i int) {
			for end := range sh.cmd[i] {
				sh.res <- shardDone{shard: i, n: sh.shards[i].RunShardWindow(end)}
			}
		}(i)
	}
	sh.started = true
}

// Close shuts down the worker pool (no-op in serial mode or before the
// first parallel round). The engine remains usable afterwards; the next
// parallel Run restarts workers.
func (sh *Sharded) Close() {
	if !sh.started {
		return
	}
	for _, c := range sh.cmd {
		close(c)
	}
	sh.cmd, sh.res, sh.started = nil, nil, false
}

// exchange drains every shard's outboxes into the owning shards' heaps.
// Events keep their generation stamps, so insertion order cannot affect
// the heap's (time, unit, seq) total order.
func (sh *Sharded) exchange() {
	for _, src := range sh.shards {
		for d, box := range src.shard.outbox {
			if len(box) == 0 {
				continue
			}
			dst := sh.shards[d]
			for i := range box {
				dst.agenda.pushStamped(&box[i])
			}
			clear(box) // drop packet references from the source buffer
			src.shard.outbox[d] = box[:0]
		}
	}
}

// MemEstimate is a runtime.MemStats-free accounting of one shard's
// dominant heap consumers, computed by walking the structures themselves.
// Est* fields measure current state; Peak* use high-water marks (the
// agenda's peak length, and the packet pool's total-ever-allocated count —
// pooled packets are never freed, so that IS the live-packet peak).
// PacketsLive can go negative for one shard of a sharded run: a packet
// acquired on its source shard is released into the pool of the shard
// that delivered it, so only the fleet-wide sum balances.
type MemEstimate struct {
	Shard         int
	OwnedSwitches int
	AgendaLen     int
	AgendaPeak    int
	PacketsLive   int
	PacketsPooled int
	EstBytes      int64
	PeakBytes     int64
}

// Mem computes the estimate for one simulator (shard or classic). Cold
// path: it walks the packet pool and every owned port queue.
func (s *Simulator) Mem() MemEstimate {
	const (
		eventBytes   = 64 // sizeof(event), padded
		packetBytes  = 120
		portBytes    = 80
		runtimeBytes = 48
	)
	m := MemEstimate{
		AgendaLen:     len(s.agenda.h),
		AgendaPeak:    s.agenda.peak,
		PacketsPooled: len(s.free),
		PacketsLive:   int(s.pktAlloc) - len(s.free),
	}
	if s.shard != nil {
		m.Shard = int(s.shard.id)
	}
	var pktSlices int64
	for _, p := range s.free {
		pktSlices += int64(cap(p.TruePath))*4 + int64(cap(p.HopQueueDepths))*4 + int64(cap(p.HopArrivals))*8
	}
	// Live packets' slice capacities are unknown; assume the pool average.
	perPkt := int64(packetBytes)
	if len(s.free) > 0 {
		perPkt += pktSlices / int64(len(s.free))
	}
	var queueBytes, portCount int64
	for i := range s.switches {
		ports := s.switches[i].ports
		if ports == nil {
			continue
		}
		m.OwnedSwitches++
		portCount += int64(len(ports))
		for j := range ports {
			queueBytes += int64(cap(ports[j].queue)) * 8
		}
	}
	statsBytes := int64(len(s.Stats.LinkBytes))*8 + int64(len(s.Stats.LinkDirBytes))*16
	fixed := int64(len(s.switches))*runtimeBytes + portCount*portBytes + queueBytes + statsBytes
	m.EstBytes = fixed + int64(cap(s.agenda.h))*eventBytes + s.pktAlloc*perPkt
	m.PeakBytes = fixed + int64(m.AgendaPeak)*eventBytes + s.pktAlloc*perPkt
	return m
}

// Mem returns per-shard memory estimates.
func (sh *Sharded) Mem() []MemEstimate {
	out := make([]MemEstimate, len(sh.shards))
	for i, s := range sh.shards {
		out[i] = s.Mem()
		out[i].Shard = i
	}
	return out
}

// String summarizes one estimate (human-readable, deterministic).
func (m MemEstimate) String() string {
	return fmt.Sprintf("shard %d: switches=%d agenda=%d/%d(peak) packets=%d live/%d pooled est=%dKB peak=%dKB",
		m.Shard, m.OwnedSwitches, m.AgendaLen, m.AgendaPeak, m.PacketsLive, m.PacketsPooled,
		m.EstBytes/1024, m.PeakBytes/1024)
}
