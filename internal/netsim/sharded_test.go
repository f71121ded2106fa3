package netsim

import (
	"reflect"
	"testing"

	"mars/internal/topology"
)

// traceRec is one observed packet event at one node.
type traceRec struct {
	at   Time
	flow FlowKey
	id   uint64
	sz   int32
}

// traceHooks records per-node event sequences as seen by one hook owner.
type traceHooks struct {
	NopHooks
	arrivals  [][]traceRec
	delivered [][]traceRec
	drops     [][]traceRec
}

func newTraceHooks(n int) *traceHooks {
	return &traceHooks{
		arrivals:  make([][]traceRec, n),
		delivered: make([][]traceRec, n),
		drops:     make([][]traceRec, n),
	}
}

func (h *traceHooks) OnSwitchArrival(s *Simulator, sw topology.NodeID, in topology.PortID, pkt *Packet) {
	h.arrivals[sw] = append(h.arrivals[sw], traceRec{s.Now(), pkt.Flow, pkt.ID, pkt.Size})
}

func (h *traceHooks) OnDeliver(s *Simulator, host topology.NodeID, pkt *Packet) {
	h.delivered[host] = append(h.delivered[host], traceRec{s.Now(), pkt.Flow, pkt.ID, pkt.Size})
}

func (h *traceHooks) OnDrop(s *Simulator, sw topology.NodeID, port topology.PortID, pkt *Packet, r DropReason) {
	h.drops[sw] = append(h.drops[sw], traceRec{s.Now(), pkt.Flow, pkt.ID, pkt.Size})
}

// mergeTraces folds per-owner traces into one per-node view. A node's
// events all reach its one owner (TestShardedHookRouting), so exactly one
// input contributes to each node slot and concatenation preserves its order.
func mergeTraces(hs []*traceHooks) *traceHooks {
	out := newTraceHooks(len(hs[0].arrivals))
	for _, h := range hs {
		for i := range h.arrivals {
			out.arrivals[i] = append(out.arrivals[i], h.arrivals[i]...)
			out.delivered[i] = append(out.delivered[i], h.delivered[i]...)
			out.drops[i] = append(out.drops[i], h.drops[i]...)
		}
	}
	return out
}

func clearIDs(h *traceHooks) {
	for _, seqs := range [][][]traceRec{h.arrivals, h.delivered, h.drops} {
		for i := range seqs {
			for j := range seqs[i] {
				seqs[i][j].id = 0
			}
		}
	}
}

// installEmitters schedules nflows recurring senders between cross-pod
// host pairs through `on` (OnNode for sharded engines, direct call for
// the classic one). When useRNG is set, sizes and gaps draw from the
// node-context RNG stream; otherwise the flow is CBR with fixed size.
func installEmitters(on func(topology.NodeID, func(*Simulator)), ft *topology.FatTree, nflows int, useRNG bool, stop Time) {
	hosts := ft.HostIDs
	perPod := len(hosts) / ft.K
	for i := 0; i < nflows; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i%len(hosts)+perPod*(1+i%(ft.K-1)))%len(hosts)]
		key := FlowKey(i + 1)
		start := Time(i%37) * 100 * Microsecond
		mean := float64(5 * Millisecond)
		on(src, func(s *Simulator) {
			var emit func()
			emit = func() {
				if s.Now() >= stop {
					return
				}
				size := int32(700)
				gap := Time(mean)
				if useRNG {
					size = int32(100 + s.RNG().Intn(1300))
					gap = Time(s.RNG().ExpFloat64() * mean)
				}
				s.Send(s.Now(), src, dst, key, size)
				s.After(gap+1, emit)
			}
			s.At(start, emit)
		})
	}
}

type engineResult struct {
	stats  Stats
	trace  *traceHooks
	events int64
}

func runClassic(t *testing.T, ft *topology.FatTree, seed int64, nflows int, useRNG, withFault bool, until Time) engineResult {
	t.Helper()
	tr := newTraceHooks(len(ft.Nodes))
	sim := New(ft.Topology, NewECMPRouter(ft.Topology, 1), tr, DefaultConfig(), seed)
	if withFault {
		sim.SetPortDropProb(ft.AggIDs[0], 0, 0.2)
	}
	installEmitters(func(n topology.NodeID, fn func(*Simulator)) { fn(sim) }, ft, nflows, useRNG, until)
	sim.Run(until)
	return engineResult{stats: sim.Stats, trace: tr}
}

func runSharded(t *testing.T, ft *topology.FatTree, part *topology.Partition, seed int64, scfg ShardedConfig, nflows int, useRNG, withFault bool, until Time) engineResult {
	t.Helper()
	traces := make([]*traceHooks, 0, 16)
	hooksFor := func(int) Hooks {
		h := newTraceHooks(len(ft.Nodes))
		traces = append(traces, h)
		return h
	}
	sh := NewSharded(ft.Topology, part, NewECMPRouter(ft.Topology, 1), hooksFor, DefaultConfig(), seed, scfg)
	if withFault {
		sh.OnNode(ft.AggIDs[0], func(s *Simulator) { s.SetPortDropProb(ft.AggIDs[0], 0, 0.2) })
	}
	installEmitters(sh.OnNode, ft, nflows, useRNG, until)
	sh.Run(until)
	return engineResult{stats: sh.MergedStats(), trace: mergeTraces(traces), events: sh.Events()[0]}
}

func requireEqualTraces(t *testing.T, label string, want, got engineResult) {
	t.Helper()
	if !reflect.DeepEqual(want.stats, got.stats) {
		t.Errorf("%s: stats diverge:\nwant %+v\ngot  %+v", label, want.stats, got.stats)
	}
	for i := range want.trace.arrivals {
		if !reflect.DeepEqual(want.trace.arrivals[i], got.trace.arrivals[i]) {
			t.Fatalf("%s: node %d arrival sequence diverges (%d vs %d events)",
				label, i, len(want.trace.arrivals[i]), len(got.trace.arrivals[i]))
		}
		if !reflect.DeepEqual(want.trace.delivered[i], got.trace.delivered[i]) {
			t.Fatalf("%s: node %d delivery sequence diverges", label, i)
		}
		if !reflect.DeepEqual(want.trace.drops[i], got.trace.drops[i]) {
			t.Fatalf("%s: node %d drop sequence diverges", label, i)
		}
	}
}

// TestShardedMatchesClassicSingleUnit pins the strongest equivalence: with
// a single-unit partition the sharded engine must reproduce the classic
// simulator event for event — same RNG draws, same packet IDs, same
// per-node sequences — across arities and seeds, RNG-heavy workload and a
// random-loss fault included.
func TestShardedMatchesClassicSingleUnit(t *testing.T) {
	until := 300 * Millisecond
	for _, k := range []int{4, 6} {
		ft, err := topology.NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			classic := runClassic(t, ft, seed, 24, true, true, until)
			sharded := runSharded(t, ft, topology.SingleUnit(ft.Topology), seed,
				ShardedConfig{Shards: 1}, 24, true, true, until)
			if classic.stats.Sent == 0 || classic.stats.Delivered == 0 {
				t.Fatalf("k=%d seed=%d: degenerate workload (sent=%d delivered=%d)",
					k, seed, classic.stats.Sent, classic.stats.Delivered)
			}
			requireEqualTraces(t, "single-unit", classic, sharded)
		}
	}
}

// TestShardedMatchesClassicPodPartition is the order property against the
// pod partition: with an RNG-free workload (per-unit streams untouched)
// the per-node event sequences of the sharded run must be identical to
// the classic global-heap run — every node sees every event in the same
// order. Packet IDs are stride-encoded per unit in sharded mode, so they
// are normalized out; times, flows, sizes, and order must match exactly.
func TestShardedMatchesClassicPodPartition(t *testing.T) {
	until := 300 * Millisecond
	for _, k := range []int{4, 6} {
		ft, err := topology.NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			classic := runClassic(t, ft, seed, 24, false, false, until)
			sharded := runSharded(t, ft, ft.PodPartition(), seed,
				ShardedConfig{Shards: 4}, 24, false, false, until)
			clearIDs(classic.trace)
			clearIDs(sharded.trace)
			requireEqualTraces(t, "pod-partition", classic, sharded)
		}
	}
}

// TestShardedShardCountInvariance is the shards=1≡N digest: the same
// seeded scenario — RNG workload plus a random-loss fault — must produce
// identical stats, per-node traces, and event counts at every hook-owner
// count.
func TestShardedShardCountInvariance(t *testing.T) {
	ft, err := topology.NewFatTree(6) // 9 units: 6 pods + 3 core stripes
	if err != nil {
		t.Fatal(err)
	}
	part := ft.PodPartition()
	until := 300 * Millisecond
	const seed = 42
	run := func(scfg ShardedConfig) engineResult {
		return runSharded(t, ft, part, seed, scfg, 24, true, true, until)
	}
	base := run(ShardedConfig{Shards: 1})
	if base.stats.Sent == 0 || base.stats.Dropped == 0 {
		t.Fatalf("degenerate workload: %+v", base.stats)
	}
	for _, n := range []int{2, 4, 8} {
		got := run(ShardedConfig{Shards: n})
		requireEqualTraces(t, "shards", base, got)
		if got.events != base.events {
			t.Errorf("shards=%d: %d events dispatched, shards=1 had %d", n, got.events, base.events)
		}
	}
}

// ownerHooks checks that every callback for a node reaches the Hooks value
// of that node's owner and no other.
type ownerHooks struct {
	t        *testing.T
	shardFor func(topology.NodeID) int
	owner    int
	calls    [4]int // arrival, forward, drop, deliver
}

func (h *ownerHooks) check(kind int, n topology.NodeID) {
	h.calls[kind]++
	if want := h.shardFor(n); want != h.owner {
		h.t.Errorf("hook kind %d for node %d reached owner %d, want %d", kind, n, h.owner, want)
	}
}

func (h *ownerHooks) OnSwitchArrival(_ *Simulator, sw topology.NodeID, _ topology.PortID, _ *Packet) {
	h.check(0, sw)
}

func (h *ownerHooks) OnForward(_ *Simulator, sw topology.NodeID, _, _ topology.PortID, _ *Packet, _ int) Action {
	h.check(1, sw)
	return ActionForward
}

func (h *ownerHooks) OnDrop(_ *Simulator, sw topology.NodeID, _ topology.PortID, _ *Packet, _ DropReason) {
	h.check(2, sw)
}

func (h *ownerHooks) OnDeliver(_ *Simulator, host topology.NodeID, _ *Packet) {
	h.check(3, host)
}

// TestShardedHookRouting pins what "shard" means: every OnSwitchArrival,
// OnForward, OnDrop and OnDeliver for node n is delivered to
// hooksFor(ShardFor(n)) — and each owner sees all four kinds, so the check
// is not vacuous.
func TestShardedHookRouting(t *testing.T) {
	ft, err := topology.NewFatTree(4) // 6 units: 4 pods + 2 core stripes
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 6} {
		var (
			sh     *Sharded
			owners []*ownerHooks
		)
		shardFor := func(n topology.NodeID) int { return sh.ShardFor(n) }
		sh = NewSharded(ft.Topology, ft.PodPartition(), NewECMPRouter(ft.Topology, 1), func(i int) Hooks {
			h := &ownerHooks{t: t, shardFor: shardFor, owner: i}
			owners = append(owners, h)
			return h
		}, DefaultConfig(), 3, ShardedConfig{Shards: n})
		// Random loss on every pod's first aggregation switch, so every
		// owner of a pod unit sees drops.
		for pod := 0; pod < ft.K; pod++ {
			agg := ft.AggIDs[pod*ft.K/2]
			for port := range ft.Node(agg).Ports {
				sh.Shard(0).SetPortDropProb(agg, topology.PortID(port), 0.3)
			}
		}
		installEmitters(sh.OnNode, ft, 32, true, 200*Millisecond)
		sh.Run(300 * Millisecond)
		if len(owners) != n {
			t.Fatalf("shards=%d: hooksFor called %d times", n, len(owners))
		}
		for _, h := range owners {
			// The two core-stripe units never drop or deliver; with six
			// owners, two of them own only a core stripe.
			coreOnly := n == 6 && h.owner >= ft.K
			for kind, c := range h.calls {
				if c == 0 && !(coreOnly && kind >= 2) {
					t.Errorf("shards=%d: owner %d saw no hook of kind %d", n, h.owner, kind)
				}
			}
		}
	}
}

// TestSteppedRunEqualsOneRun pins the property the -progress heartbeat and
// the epoch-stepped stream trial rest on: N stepped Run(t_i) calls dispatch
// exactly the trace of one Run(t_N).
func TestSteppedRunEqualsOneRun(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	until := 300 * Millisecond
	run := func(steps []Time) engineResult {
		tr := newTraceHooks(len(ft.Nodes))
		sh := NewSharded(ft.Topology, ft.PodPartition(), NewECMPRouter(ft.Topology, 1),
			func(int) Hooks { return tr }, DefaultConfig(), 11, ShardedConfig{Shards: 1})
		sh.OnNode(ft.AggIDs[0], func(s *Simulator) { s.SetPortDropProb(ft.AggIDs[0], 0, 0.2) })
		installEmitters(sh.OnNode, ft, 24, true, until)
		for _, at := range steps {
			if got := sh.Run(at); got != at {
				t.Fatalf("Run(%v) returned %v", at, got)
			}
		}
		return engineResult{stats: sh.MergedStats(), trace: tr, events: sh.Events()[0]}
	}
	one := run([]Time{until})
	// Uneven slices, one of them empty of events and one ending exactly on
	// an event timestamp boundary of the CBR-free workload.
	stepped := run([]Time{1, 7 * Millisecond, 7 * Millisecond, 50 * Millisecond, 123456789, 299 * Millisecond, until})
	if one.stats.Delivered == 0 || one.stats.Dropped == 0 {
		t.Fatalf("degenerate workload: %+v", one.stats)
	}
	requireEqualTraces(t, "stepped", one, stepped)
	if one.events != stepped.events {
		t.Errorf("stepped runs dispatched %d events, one run %d", stepped.events, one.events)
	}
}

// TestStopHonouredOnPartition: a run stops at its horizon on a pod
// partition, leaving later events queued, and a second run to the same
// horizon dispatches nothing; RunAll counts its dispatched events like Run.
func TestStopHonouredOnPartition(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(ft.Topology, ft.PodPartition(), NewECMPRouter(ft.Topology, 1), nil, DefaultConfig(), 5, ShardedConfig{Shards: 2})
	installEmitters(sh.OnNode, ft, 16, true, 200*Millisecond)
	if got := sh.Run(40 * Millisecond); got != 40*Millisecond {
		t.Fatalf("Run(40ms) returned %v", got)
	}
	st := sh.MergedStats()
	if st.Sent == 0 || st.Sent == st.Delivered+st.Dropped {
		t.Fatalf("Run(40ms) did not stop with packets in flight: %+v", st)
	}
	events := sh.Events()[0]
	sh.Run(40 * Millisecond)
	if got := sh.Events()[0]; got != events {
		t.Errorf("a second run to the same horizon dispatched %d more events", got-events)
	}

	// RunAll counts what it dispatches.
	sim := New(ft.Topology, NewECMPRouter(ft.Topology, 1), nil, DefaultConfig(), 5)
	sim.Send(0, ft.HostIDs[0], ft.HostIDs[len(ft.HostIDs)-1], 1, 700)
	sim.RunAll()
	if sim.Stats.Delivered != 1 || sim.events == 0 {
		t.Errorf("RunAll delivered %d packets and counted %d events", sim.Stats.Delivered, sim.events)
	}
}

// TestShardedMemEstimates sanity-checks the MemStats-free accounting: a
// drained run must report every switch of the fabric, a nonzero agenda
// peak, and no packet left live.
func TestShardedMemEstimates(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(ft.Topology, ft.PodPartition(), NewECMPRouter(ft.Topology, 1), nil, DefaultConfig(), 7, ShardedConfig{Shards: 4})
	installEmitters(sh.OnNode, ft, 16, true, 100*Millisecond)
	sh.Run(400 * Millisecond) // generous horizon: all in-flight packets drain
	mem := sh.Mem()
	if len(mem) != 1 {
		t.Fatalf("%d estimates, want the one simulator's", len(mem))
	}
	m := mem[0]
	if m.AgendaPeak <= 0 || m.EstBytes <= 0 || m.PeakBytes < m.EstBytes-int64(len(ft.Nodes))*64 {
		t.Errorf("implausible estimate %+v", m)
	}
	if m.PacketsLive != 0 {
		t.Errorf("%d packets live after drain, want 0", m.PacketsLive)
	}
	if m.Switches != ft.NumSwitches() {
		t.Errorf("estimate covers %d switches, want %d", m.Switches, ft.NumSwitches())
	}
}

// TestShardedStepAllocs pins the partitioned hot path — per-unit stamps,
// unit switches on dispatch, two hook owners — at zero allocations per
// end-to-end cross-pod packet in steady state.
func TestShardedStepAllocs(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	sh := NewSharded(ft.Topology, ft.PodPartition(), NewECMPRouter(ft.Topology, 1), nil, cfg, 1, ShardedConfig{Shards: 2})
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
	// Warm the agenda, packet pool, and port queues on every path the
	// sends below traverse.
	for n := 0; n < 256; n++ {
		send()
	}
	avg := testing.AllocsPerRun(200, send)
	if avg != 0 {
		t.Errorf("sharded end-to-end packet allocates %.2f objects/op, want 0", avg)
	}
}
