package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"mars/internal/topology"
)

// Action is a Hooks verdict on a packet about to be enqueued.
type Action uint8

const (
	// ActionForward lets the packet proceed.
	ActionForward Action = iota
	// ActionDrop discards the packet (counted as DropByProgram).
	ActionDrop
)

// Hooks observes and influences packets as they move through switches.
// This is the P4-pipeline attachment point: MARS's data plane and each
// baseline system implement Hooks. All methods run synchronously inside
// the event loop; implementations must not retain pkt past the call unless
// they copy what they need (the MARS data plane copies into its register
// tables, as a real switch would).
type Hooks interface {
	// OnSwitchArrival fires when a packet has fully arrived at a switch,
	// before the routing decision.
	OnSwitchArrival(s *Simulator, sw topology.NodeID, inPort topology.PortID, pkt *Packet)
	// OnForward fires after routing; qlen is the egress queue length before
	// this packet is enqueued. Returning ActionDrop discards the packet.
	OnForward(s *Simulator, sw topology.NodeID, inPort, outPort topology.PortID, pkt *Packet, qlen int) Action
	// OnDeliver fires when a packet reaches its destination host.
	OnDeliver(s *Simulator, host topology.NodeID, pkt *Packet)
	// OnDrop fires when the simulator discards a packet at sw.
	OnDrop(s *Simulator, sw topology.NodeID, port topology.PortID, pkt *Packet, reason DropReason)
}

// NopHooks is an embeddable no-op Hooks implementation.
type NopHooks struct{}

// OnSwitchArrival implements Hooks.
func (NopHooks) OnSwitchArrival(*Simulator, topology.NodeID, topology.PortID, *Packet) {}

// OnForward implements Hooks.
func (NopHooks) OnForward(*Simulator, topology.NodeID, topology.PortID, topology.PortID, *Packet, int) Action {
	return ActionForward
}

// OnDeliver implements Hooks.
func (NopHooks) OnDeliver(*Simulator, topology.NodeID, *Packet) {}

// OnDrop implements Hooks.
func (NopHooks) OnDrop(*Simulator, topology.NodeID, topology.PortID, *Packet, DropReason) {}

var _ Hooks = NopHooks{}

// Config sets the physical parameters of the simulated network.
type Config struct {
	// LinkBandwidthBps is the serialization rate of every link in bits per
	// second. The paper's testbed uses 10 Gbps ports; the Mininet/BMv2
	// environment is far slower, and the defaults below match its scale so
	// queues actually build under the paper's fault loads.
	LinkBandwidthBps int64
	// HostLinkBandwidthBps overrides the rate of host-facing links
	// (0 = same as LinkBandwidthBps). Access links are typically faster
	// than the software-switch fabric, and a slower setting makes host
	// fan-in, not the fabric, the bottleneck.
	HostLinkBandwidthBps int64
	// PropDelay is the per-link propagation delay.
	PropDelay Time
	// SwitchProcDelay is the base per-packet pipeline latency at a switch.
	SwitchProcDelay Time
	// QueueCapacity is the per-port egress queue limit in packets; a full
	// queue tail-drops.
	QueueCapacity int
}

// DefaultConfig returns the tests' parameters: 20 Mb/s links, so that
// >1000 pps bursts build queues, 10 us links and 64-packet queues.
//
//mars:test-seam 113 test calls run these values; every program runs mars.DefaultConfig().Sim instead (a 14 Mb/s fabric, 100 Mb/s host links, 128-packet queues)
func DefaultConfig() Config {
	return Config{
		LinkBandwidthBps: 20_000_000, // 20 Mbps software switch scale
		PropDelay:        10 * Microsecond,
		SwitchProcDelay:  5 * Microsecond,
		QueueCapacity:    64,
	}
}

// portRuntime is one switch egress port: its wiring, copied from the
// topology at construction so the event loop never walks the graph, and
// its mutable state. The fields are ordered largest first, so the wiring
// costs the struct 8 bytes.
type portRuntime struct {
	// queue[qhead:] holds the waiting packets. Dequeue advances qhead
	// instead of re-slicing so the backing array is reused; enqueue
	// compacts lazily when the tail hits capacity. This keeps the
	// steady-state enqueue path allocation-free.
	queue []*Packet
	qhead int
	// nextFreeAt enforces the process-rate-decrease fault: the earliest
	// time the next transmission may start.
	nextFreeAt Time

	// Fault state:
	dropProb     float64 // random loss probability per enqueue
	rateLimitPPS float64 // max departures per second; 0 = unlimited

	// Wiring: the topology.Port this runtime stands for.
	peer     topology.NodeID
	peerPort topology.PortID
	link     topology.LinkID

	busy     bool
	down     bool  // attached link is administratively/physically down
	peerHost bool  // peer is a host: serialize at the host-link rate, deliver on arrival
	dir      uint8 // Stats.LinkDirBytes index of this port's transmit direction
}

// qlen is the number of packets waiting in the queue (excluding any
// packet currently being serialized).
func (p *portRuntime) qlen() int { return len(p.queue) - p.qhead }

func (p *portRuntime) minGap() Time {
	if p.rateLimitPPS <= 0 {
		return 0
	}
	return Time(float64(Second) / p.rateLimitPPS)
}

// switchRuntime is per-switch mutable state.
type switchRuntime struct {
	ports     []portRuntime
	procExtra Time // switch-level Delay fault
	down      bool // switch is rebooting: every arriving packet is lost
}

// hostWiring is a host's access link as its edge switch sees it: the
// switch a packet the host sends arrives at, and the port it arrives on.
// edge is -1 for a node that is not a host or has no edge switch.
type hostWiring struct {
	edge topology.NodeID
	port topology.PortID
}

// Stats aggregates run-level counters.
type Stats struct {
	// LinkBytes[linkID] counts bytes serialized on each link (both
	// directions summed).
	LinkBytes []int64
	// LinkDirBytes[linkID][d] splits the count by direction: d=0 is A→B,
	// d=1 is B→A (see topology.Link). Per-direction utilization studies
	// (Fig. 2) need this — a full-duplex link saturates per direction.
	LinkDirBytes [][2]int64
	// Sent, Delivered, Dropped count packets end to end.
	Sent      int64
	Delivered int64
	Dropped   int64
	// DropsByReason indexes DropReason.
	DropsByReason [6]int64
	// TotalLatency accumulates end-to-end latency of delivered packets.
	TotalLatency Time
}

// MeanLatency returns the average end-to-end latency of delivered packets.
func (st *Stats) MeanLatency() Time {
	if st.Delivered == 0 {
		return 0
	}
	return st.TotalLatency / Time(st.Delivered)
}

// unitState is the per-partition-unit generation state: everything an
// event's effects may depend on besides the switch state it touches. Each
// unit stamps the events it generates with its own sequence counter, draws
// from its own RNG stream and numbers its own packets, so the trace depends
// on the partition alone; hooks is the pipeline of the unit's hook owner.
type unitState struct {
	id uint64
	// ord is the last stamp issued: id<<unitShift | events generated.
	ord   uint64
	pkts  uint64
	rng   *rand.Rand
	hooks Hooks
}

// Simulator owns the event loop and all runtime network state. There is
// one agenda per simulation, ordered by (time, generating unit, per-unit
// seq); netsim.New runs it over the single-unit partition, where that order
// is plain scheduling order.
type Simulator struct {
	Topo  *topology.Topology
	Cfg   Config
	Stats Stats

	router   *ECMPRouter
	agenda   agenda
	now      Time
	switches []switchRuntime
	// hosts is indexed by NodeID like switches.
	hosts []hostWiring
	// events counts dispatched events (Run and RunAll alike).
	events int64
	// unitOf maps NodeID -> partition unit (shared with the Partition,
	// read-only); units holds each unit's generation state.
	unitOf []int32
	units  []unitState
	// cur is the unit whose event (or OnNode callback) is executing: every
	// push is stamped with it, random draws come from its stream and hooks
	// go to its owner. dispatch sets it from the event's owning unit.
	cur *unitState
	// free is the packet pool: delivered and dropped packets return here
	// and are reissued by Send with their ground-truth slices' capacity
	// intact, so a steady-state run allocates no packets at all. Reuse is
	// LIFO and single-threaded, hence deterministic.
	free []*Packet
	// pktAlloc counts packets ever allocated (pool misses); together with
	// len(free) it gives the live-packet estimate without runtime.MemStats.
	pktAlloc int64
}

// New creates a simulator over topo using router for forwarding decisions
// and hooks as the attached pipeline (nil means no pipeline). It is the
// one-unit case of the partitioned simulator: unit 0 keeps the raw seed,
// event stamps are the scheduling counter and packet IDs run 1, 2, 3, …
func New(topo *topology.Topology, router *ECMPRouter, hooks Hooks, cfg Config, seed int64) *Simulator {
	return newSimulator(topo, topology.SingleUnit(topo), router, []Hooks{hooks}, cfg, seed)
}

// newSimulator builds the simulator over a validated partition; unitHooks
// is indexed by unit (nil entries mean no pipeline).
func newSimulator(topo *topology.Topology, part *topology.Partition, router *ECMPRouter, unitHooks []Hooks, cfg Config, seed int64) *Simulator {
	s := &Simulator{
		Topo:   topo,
		Cfg:    cfg,
		router: router,
		unitOf: part.UnitOf,
		units:  make([]unitState, part.NumUnits),
	}
	for u := range s.units {
		hooks := unitHooks[u]
		if hooks == nil {
			hooks = NopHooks{}
		}
		s.units[u] = unitState{
			id:    uint64(u),
			ord:   uint64(u) << unitShift,
			rng:   rand.New(rand.NewSource(unitSeed(seed, u))),
			hooks: hooks,
		}
	}
	s.cur = &s.units[0]
	s.Stats.LinkBytes = make([]int64, len(topo.Links))
	s.Stats.LinkDirBytes = make([][2]int64, len(topo.Links))
	s.switches = make([]switchRuntime, len(topo.Nodes))
	s.hosts = make([]hostWiring, len(topo.Nodes))
	for i := range topo.Nodes {
		id := topology.NodeID(i)
		if topo.Nodes[i].Kind == topology.KindSwitch {
			ports := make([]portRuntime, len(topo.Nodes[i].Ports))
			for p, tp := range topo.Nodes[i].Ports {
				ports[p].peer, ports[p].peerPort, ports[p].link = tp.Peer, tp.PeerPort, tp.Link
				ports[p].peerHost = topo.IsHost(tp.Peer)
				if topo.Links[tp.Link].A != id {
					ports[p].dir = 1
				}
			}
			s.switches[i].ports = ports
		}
		s.hosts[i].edge = -1
		if edge, ok := topo.EdgeSwitchOf(id); ok {
			port, _ := topo.PortTo(edge, id)
			s.hosts[i] = hostWiring{edge: edge, port: port}
		}
	}
	return s
}

// unitSeed derives unit u's RNG seed; unit 0 gets the base seed verbatim.
func unitSeed(seed int64, u int) int64 {
	const golden = uint64(0x9E3779B97F4A7C15)
	return seed ^ int64(uint64(u)*golden)
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// RNG exposes the executing unit's deterministic random source for
// workload generators and fault injectors that must share the seed.
func (s *Simulator) RNG() *rand.Rand { return s.cur.rng }

// At schedules fn to run at time t (clamped to now if in the past).
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.push(&event{at: t, kind: evFunc, fn: fn})
}

// After schedules fn after a delay from now.
func (s *Simulator) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Run processes events until the agenda empties or until time `until`
// passes (events after `until` remain queued). It returns the final time.
// Stepping Run(t1), Run(t2), … dispatches exactly what one Run to the last
// horizon would.
func (s *Simulator) Run(until Time) Time {
	s.drain(until)
	if s.now < until {
		s.now = until
	}
	return s.now
}

// RunAll processes events until the agenda empties, leaving the clock at
// the last event.
//
//mars:test-seam tests in four packages and the BenchmarkNetsimStep gate row drain without moving the clock past the last event
func (s *Simulator) RunAll() Time {
	s.drain(math.MaxInt64)
	return s.now
}

// drain is the event loop: it dispatches, in agenda order, every event
// due by until. It is the agenda's one pop site, and each event is
// dispatched from the agenda's pop slot, which the next pop overwrites. No
// event handler calls Run or RunAll, so drain is never re-entered while a
// dispatch still reads its event; keep it that way.
func (s *Simulator) drain(until Time) {
	for !s.agenda.empty() {
		e := s.agenda.nextBy(until)
		if e == nil {
			return
		}
		s.now = e.at
		s.events++
		s.dispatch(e)
	}
}

// unitShift packs the generating unit into an event's ord stamp above the
// per-unit sequence counter: ord = unit<<unitShift | seq. 48 bits leave
// room for ~2.8e14 events per unit per run, orders of magnitude beyond any
// sweep, while keeping heap comparisons a single uint64 compare.
const unitShift = 48

// push stamps one event with (executing unit, that unit's next seq) and
// inserts it. It is on the per-packet hot path and must stay inline-thin.
func (s *Simulator) push(e *event) {
	u := s.cur
	u.ord++
	e.ord = u.ord
	s.agenda.push(e)
}

// enter makes node n's unit the executing one.
func (s *Simulator) enter(n topology.NodeID) { s.cur = &s.units[s.unitOf[n]] }

// dispatch executes one event in the context of the unit that owns the
// state it touches: packet events run as the unit of the switch (or, for a
// propagation, the peer) they operate on, and evFunc closures stay with the
// unit that scheduled them, recovered from the ord stamp. Packet events
// resolve their port operands against the port's wiring at fire time, so
// the agenda never carries more than (node, port, packet).
func (s *Simulator) dispatch(e *event) {
	switch e.kind {
	case evFunc:
		s.cur = &s.units[e.ord>>unitShift]
		e.fn()
	case evHostArrive:
		sw, in := topology.NodeID(e.a), topology.PortID(e.b)
		s.enter(sw)
		pr := &s.switches[sw].ports[in]
		if pr.down {
			// The access link is down: what the host sent is lost on it.
			s.drop(sw, in, e.pkt, DropLinkDown)
			return
		}
		// The host transmits the other way from the edge switch's port.
		n := int64(e.pkt.WireSize())
		s.Stats.LinkBytes[pr.link] += n
		s.Stats.LinkDirBytes[pr.link][pr.dir^1] += n
		s.arriveAtSwitch(sw, in, e.pkt)
	case evProcArrive:
		s.enter(topology.NodeID(e.a))
		s.processAtSwitch(topology.NodeID(e.a), topology.PortID(e.b), e.pkt)
	case evEnqueue:
		s.enter(topology.NodeID(e.a))
		s.enqueue(topology.NodeID(e.a), topology.PortID(e.b), e.pkt)
	case evTxDone:
		s.enter(topology.NodeID(e.a))
		s.txDone(topology.NodeID(e.a), topology.PortID(e.b), e.pkt)
	case evPropagate:
		pr := &s.switches[e.a].ports[e.b]
		s.enter(pr.peer)
		if pr.peerHost {
			s.deliver(pr.peer, e.pkt)
		} else {
			s.arriveAtSwitch(pr.peer, pr.peerPort, e.pkt)
		}
	case evStartTx:
		s.enter(topology.NodeID(e.a))
		s.startTransmitNow(topology.NodeID(e.a), topology.PortID(e.b))
	}
}

// acquirePacket takes a packet from the pool (or allocates the pool's
// first packets) with all fields zeroed and slice capacity retained.
func (s *Simulator) acquirePacket() *Packet {
	if n := len(s.free); n > 0 {
		pkt := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return pkt
	}
	s.pktAlloc++
	return &Packet{}
}

// releasePacket resets a terminal (delivered or dropped) packet and
// returns it to the pool. Hooks have already run; per the Hooks contract
// they copied anything they needed.
func (s *Simulator) releasePacket(pkt *Packet) {
	*pkt = Packet{TruePath: pkt.TruePath[:0]}
	//mars:alloc TestNetsimStepAllocs the free list keeps its capacity; steady state recycles without growing
	s.free = append(s.free, pkt)
}

// Send emits a packet from its source host at time t. The packet ID is
// assigned here. Size must be positive. The returned packet is owned by
// the simulator and recycled once delivered or dropped; callers and hooks
// must copy anything they need rather than retain it.
func (s *Simulator) Send(t Time, src, dst topology.NodeID, flow FlowKey, size int32) *Packet {
	if !s.Topo.IsHost(src) || !s.Topo.IsHost(dst) {
		panic(fmt.Sprintf("netsim: Send endpoints must be hosts (%d -> %d)", src, dst))
	}
	if size <= 0 {
		panic("netsim: packet size must be positive")
	}
	pkt := s.acquirePacket()
	// Per-unit ID stream, stride-encoded so IDs are globally unique; with
	// one unit the stride is 1 and IDs run 1, 2, 3, …
	u := s.cur
	pkt.ID = u.pkts*uint64(len(s.units)) + u.id + 1
	u.pkts++
	pkt.Src = src
	pkt.Dst = dst
	pkt.Flow = flow
	pkt.Size = size
	pkt.SendTime = t
	s.Stats.Sent++
	access := s.hosts[src]
	if access.edge < 0 {
		panic(fmt.Sprintf("netsim: host %d has no edge switch", src))
	}
	// Host NIC: ideal serialization onto the access link.
	tx := s.txTimeHost(pkt.WireSize())
	at := t + tx + s.Cfg.PropDelay
	if at < s.now {
		at = s.now
	}
	s.push(&event{at: at, kind: evHostArrive, a: int32(access.edge), b: int32(access.port), pkt: pkt})
	return pkt
}

// txTime returns the serialization delay of n bytes at link bandwidth.
func (s *Simulator) txTime(n int32) Time {
	return Time(int64(n) * 8 * int64(Second) / s.Cfg.LinkBandwidthBps)
}

// txTimeHost returns the serialization delay on a host-facing link.
func (s *Simulator) txTimeHost(n int32) Time {
	bw := s.Cfg.HostLinkBandwidthBps
	if bw <= 0 {
		bw = s.Cfg.LinkBandwidthBps
	}
	return Time(int64(n) * 8 * int64(Second) / bw)
}

// arriveAtSwitch applies the switch-level extra processing delay (the
// Delay fault: interrupts, power, misconfiguration — latency the pipeline
// itself experiences) and then runs the pipeline.
func (s *Simulator) arriveAtSwitch(sw topology.NodeID, inPort topology.PortID, pkt *Packet) {
	if extra := s.switches[sw].procExtra; extra > 0 {
		//mars:alloc TestNetsimStepAllocs push copies the event into the agenda array; the literal never outlives the call and stays on the stack
		s.push(&event{at: s.now + extra, kind: evProcArrive, a: int32(sw), b: int32(inPort), pkt: pkt})
		return
	}
	s.processAtSwitch(sw, inPort, pkt)
}

// processAtSwitch runs the ingress pipeline, routing, and enqueue for pkt.
func (s *Simulator) processAtSwitch(sw topology.NodeID, inPort topology.PortID, pkt *Packet) {
	if s.switches[sw].down {
		// A rebooting switch does not run its pipeline: the packet is lost
		// before it can leave a telemetry trace at this hop.
		s.drop(sw, inPort, pkt, DropSwitchDown)
		return
	}
	pkt.TruePath = append(pkt.TruePath, sw) //mars:alloc TestNetsimStepAllocs the per-packet slice keeps its capacity across pool recycling
	s.cur.hooks.OnSwitchArrival(s, sw, inPort, pkt)

	outPort, ok := s.router.Route(sw, pkt)
	if !ok {
		s.drop(sw, 0, pkt, DropNoRoute)
		return
	}
	sr := &s.switches[sw]
	pr := &sr.ports[outPort]
	qlen := pr.qlen()
	if pr.busy {
		qlen++ // count the in-flight packet as queue occupancy
	}

	if act := s.cur.hooks.OnForward(s, sw, inPort, outPort, pkt, qlen); act == ActionDrop {
		s.drop(sw, outPort, pkt, DropByProgram)
		return
	}
	if pr.down {
		s.drop(sw, outPort, pkt, DropLinkDown)
		return
	}
	if pr.dropProb > 0 && s.cur.rng.Float64() < pr.dropProb {
		s.drop(sw, outPort, pkt, DropFault)
		return
	}
	// Pipeline processing delay before the packet is ready at the egress
	// queue.
	//mars:alloc TestNetsimStepAllocs push copies the event into the agenda array; the literal never outlives the call and stays on the stack
	s.push(&event{at: s.now + s.Cfg.SwitchProcDelay, kind: evEnqueue, a: int32(sw), b: int32(outPort), pkt: pkt})
}

// enqueue places pkt on the egress queue of sw/outPort (tail-dropping if
// the queue is at capacity) and kicks the transmitter if idle.
func (s *Simulator) enqueue(sw topology.NodeID, outPort topology.PortID, pkt *Packet) {
	pr := &s.switches[sw].ports[outPort]
	if pr.qlen() >= s.Cfg.QueueCapacity {
		s.drop(sw, outPort, pkt, DropQueueFull)
		return
	}
	if pr.qhead > 0 && len(pr.queue) == cap(pr.queue) {
		// Reclaim the drained prefix rather than growing the array.
		n := copy(pr.queue, pr.queue[pr.qhead:])
		clear(pr.queue[n:])
		pr.queue = pr.queue[:n]
		pr.qhead = 0
	}
	//mars:alloc TestNetsimStepAllocs the drained prefix is reclaimed above, so the queue array's capacity is reused
	pr.queue = append(pr.queue, pkt)
	if !pr.busy {
		s.startTransmit(sw, outPort)
	}
}

// startTransmit begins serializing the head-of-line packet.
func (s *Simulator) startTransmit(sw topology.NodeID, outPort topology.PortID) {
	pr := &s.switches[sw].ports[outPort]
	if pr.qlen() == 0 {
		pr.busy = false
		return
	}
	start := s.now
	if pr.nextFreeAt > start {
		pr.busy = true
		//mars:alloc TestNetsimStepAllocs push copies the event into the agenda array; the literal never outlives the call and stays on the stack
		s.push(&event{at: pr.nextFreeAt, kind: evStartTx, a: int32(sw), b: int32(outPort)})
		return
	}
	s.startTransmitNow(sw, outPort)
}

func (s *Simulator) startTransmitNow(sw topology.NodeID, outPort topology.PortID) {
	pr := &s.switches[sw].ports[outPort]
	if pr.qlen() == 0 {
		pr.busy = false
		return
	}
	pr.busy = true
	pkt := pr.queue[pr.qhead]
	pr.queue[pr.qhead] = nil // release the reference for the pool
	pr.qhead++
	if pr.qhead == len(pr.queue) {
		pr.queue = pr.queue[:0]
		pr.qhead = 0
	}

	var tx Time
	if pr.peerHost {
		tx = s.txTimeHost(pkt.WireSize())
	} else {
		tx = s.txTime(pkt.WireSize())
	}
	if g := pr.minGap(); g > tx {
		// Rate limit dominates serialization (process-rate decrease).
		tx = g
	}
	pr.nextFreeAt = s.now + tx
	//mars:alloc TestNetsimStepAllocs push copies the event into the agenda array; the literal never outlives the call and stays on the stack
	s.push(&event{at: s.now + tx, kind: evTxDone, a: int32(sw), b: int32(outPort), pkt: pkt})
}

// txDone completes one serialization: account the link bytes, schedule the
// propagation to the peer, then keep the transmitter going.
func (s *Simulator) txDone(sw topology.NodeID, outPort topology.PortID, pkt *Packet) {
	pr := &s.switches[sw].ports[outPort]
	n := int64(pkt.WireSize())
	s.Stats.LinkBytes[pr.link] += n
	s.Stats.LinkDirBytes[pr.link][pr.dir] += n
	//mars:alloc TestNetsimStepAllocs push copies the event into the agenda array; the literal never outlives the call and stays on the stack
	s.push(&event{at: s.now + s.Cfg.PropDelay, kind: evPropagate, a: int32(sw), b: int32(outPort), pkt: pkt})
	s.startTransmit(sw, outPort)
}

func (s *Simulator) deliver(host topology.NodeID, pkt *Packet) {
	s.Stats.Delivered++
	s.Stats.TotalLatency += s.now - pkt.SendTime
	s.cur.hooks.OnDeliver(s, host, pkt)
	s.releasePacket(pkt)
}

func (s *Simulator) drop(sw topology.NodeID, port topology.PortID, pkt *Packet, reason DropReason) {
	s.Stats.Dropped++
	s.Stats.DropsByReason[reason]++
	s.cur.hooks.OnDrop(s, sw, port, pkt, reason)
	s.releasePacket(pkt)
}

// --- Fault controls -------------------------------------------------------
//
// These are the Chaosblade-equivalent knobs; internal/faults composes them
// into the paper's five scenarios.

// SetPortDropProb sets random loss probability on an egress port.
func (s *Simulator) SetPortDropProb(sw topology.NodeID, port topology.PortID, p float64) {
	s.switches[sw].ports[port].dropProb = p
}

// SetPortRateLimit caps departures on a port at pps packets per second
// (0 removes the cap). This models the process-rate-decrease fault.
func (s *Simulator) SetPortRateLimit(sw topology.NodeID, port topology.PortID, pps float64) {
	s.switches[sw].ports[port].rateLimitPPS = pps
}

// SetSwitchExtraDelay adds processing latency to every packet traversing
// the switch (the Delay fault at switch level: interrupts, power, config).
func (s *Simulator) SetSwitchExtraDelay(sw topology.NodeID, d Time) {
	s.switches[sw].procExtra = d
}

// PortDropProb returns the current loss probability on an egress port.
func (s *Simulator) PortDropProb(sw topology.NodeID, port topology.PortID) float64 {
	return s.switches[sw].ports[port].dropProb
}

// PortRateLimit returns the current departure cap on a port (0 = none).
func (s *Simulator) PortRateLimit(sw topology.NodeID, port topology.PortID) float64 {
	return s.switches[sw].ports[port].rateLimitPPS
}

// SwitchExtraDelay returns the current switch-level extra delay.
func (s *Simulator) SwitchExtraDelay(sw topology.NodeID) Time {
	return s.switches[sw].procExtra
}

// --- Dynamic link and switch state ----------------------------------------
//
// Gray-failure scenarios (link down, flapping, switch reboot) toggle these
// mid-run. The flags live on the per-port and per-switch runtime structs the
// hot path already touches, so checking them costs one branch and zero
// allocations (see hotpath_allocs_test.go).

// SetLinkUp raises or lowers a link. A lowered link drops every packet that
// tries to cross it, in both directions: a switch's at the moment its
// egress pipeline reaches it, a host's (which has no egress pipeline here)
// on arrival at its edge switch, charged to the edge's access port.
// Packets a switch already serialized onto the wire complete their
// propagation (the photons are in flight).
func (s *Simulator) SetLinkUp(link topology.LinkID, up bool) {
	l := s.Topo.Links[link]
	if s.Topo.IsSwitch(l.A) {
		s.switches[l.A].ports[l.APort].down = !up
	}
	if s.Topo.IsSwitch(l.B) {
		s.switches[l.B].ports[l.BPort].down = !up
	}
}

// LinkUp reports whether a link is currently up. Host-to-host links do not
// exist in a fat-tree, so at least one endpoint carries the flag.
func (s *Simulator) LinkUp(link topology.LinkID) bool {
	l := s.Topo.Links[link]
	if s.Topo.IsSwitch(l.A) {
		return !s.switches[l.A].ports[l.APort].down
	}
	return !s.switches[l.B].ports[l.BPort].down
}

// SetSwitchDown marks a switch as rebooting (or recovered). While down the
// switch loses every arriving packet; its register state is NOT cleared
// here — the injector flushes the dataplane program separately, mirroring
// how a real reboot wipes P4 register arrays.
func (s *Simulator) SetSwitchDown(sw topology.NodeID, down bool) {
	s.switches[sw].down = down
}
