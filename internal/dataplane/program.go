package dataplane

import (
	"slices"

	"mars/internal/netsim"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// The evaluation's fixed constants, stated once for the data plane and for
// everything that interprets its records.
const (
	// EpochDuration is the telemetry sampling period (§4.2.1). The
	// controller's analysis (rca) and the streaming service both read
	// epoch IDs minted here, so they name this constant rather than
	// restate it.
	EpochDuration = 100 * netsim.Millisecond
	// DefaultThreshold applies to flows without a pushed dynamic threshold
	// (§4.2.2: a deliberately high default).
	DefaultThreshold = 10 * netsim.Second
	// DropCountThreshold is the source-vs-sink count difference that
	// triggers a drop notification (§4.2.2); rca re-verifies collected
	// records against the same floor.
	DropCountThreshold = 3
	// dropRelMargin widens that trigger with volume: a quarter of the
	// epoch's source count may cross the epoch boundary without loss.
	dropRelMargin = 4
	// ringSize is the Ring Table capacity per sink switch.
	ringSize = 512
)

// Config parameterizes the MARS switch program.
type Config struct {
	// PathCfg is the PathID hash configuration shared with the control
	// plane.
	PathCfg pathid.Config
	// NotifyWindow rate-limits notifications: at most one per switch per
	// window (§4.2.2).
	NotifyWindow netsim.Time
	// Codec selects the telemetry encoding; nil is Mars11, the paper's
	// fixed 11-byte header.
	Codec Codec
}

// DefaultProgramConfig returns the configuration used across the
// evaluation: 8-bit CRC16 PathIDs and a 50 ms notification window.
func DefaultProgramConfig() Config {
	return Config{
		PathCfg:      pathid.DefaultConfig(),
		NotifyWindow: 50 * netsim.Millisecond,
	}
}

// Stats aggregates the program's bandwidth-relevant counters for the
// Fig. 9 overhead study.
type Stats struct {
	// TelemetryLinkBytes counts extra header bytes crossing inter-switch
	// links (PathID field + INT headers), the "Telemetry" bandwidth bar.
	TelemetryLinkBytes int64
	// TelemetryPackets counts packets promoted to telemetry packets.
	TelemetryPackets int64
	// Notifications counts data-plane triggers sent (post rate limiting).
	Notifications int64
	// SuppressedNotifications counts triggers absorbed by the per-switch
	// window or the in-header flag.
	SuppressedNotifications int64
}

// switchState is the per-switch register memory. Every resident switch
// checks latency, so thresholds and the notify window exist at all of
// them; the three register tables and telemEpoch exist only at edge
// switches, the only ones that can be a flow's source or sink (§4.2: core
// switches carry no per-flow state).
type switchState struct {
	it *IngressTable
	et *EgressTable
	rt *RingTable
	// thresholds holds dynamic per-flow latency thresholds pushed by the
	// control plane; non-nil exactly at resident switches.
	thresholds map[FlowID]netsim.Time
	// telemEpoch tracks the latest telemetry epoch seen per flow at the
	// sink, for epoch-gap drop detection. The stored value is epoch+1 so
	// that 0 means "never seen", folding the former seen-flag map into
	// one lookup on the per-telemetry-packet path.
	telemEpoch map[FlowID]int64
	// lastNotify enforces the notification window.
	lastNotify netsim.Time
	notified   bool
}

// Program is the MARS data plane attached to a simulator. One Program
// serves every switch of the topology (state is per switch inside).
type Program struct {
	netsim.NopHooks

	Cfg   Config
	Topo  *topology.Topology
	Paths *pathid.Table
	// Notify receives anomaly triggers; nil disables notification.
	Notifier Notifier
	// OnRecord observes every Ring Table record as the sink pushes it —
	// the streaming controller's ingest tap. The record is passed by value
	// (no escape from the zero-alloc forwarding path); nil disables the
	// tap. The callback runs inside the simulator event loop, so it must
	// not block.
	OnRecord func(sw topology.NodeID, rec RTRecord)
	Stats    Stats

	states []switchState
	// sinkOf caches each host's edge switch, indexed by node ID (-1 for
	// non-hosts).
	sinkOf []topology.NodeID
	// ord numbers the switches with a host behind them — the only
	// possible sources and sinks — 0, 1, 2, … in node order, indexed by
	// node ID (-1 elsewhere). IT and ET slots are indexed by it, so they
	// hold one slot per edge switch rather than one per node.
	ord   []int32
	edges int
	// cdc is the resolved telemetry codec (Cfg.Codec, or Mars11 for nil);
	// hopBytes and stride are its HopBytes and EpochStride, read once.
	cdc      Codec
	hopBytes int32
	stride   uint32
	// metaFree recycles PacketMeta values: a meta is acquired at the
	// source switch and released at the sink or on drop, so steady-state
	// forwarding allocates nothing. LIFO reuse in a single-threaded
	// simulator is deterministic.
	metaFree []*PacketMeta
}

func (p *Program) acquireMeta() *PacketMeta {
	if n := len(p.metaFree); n > 0 {
		m := p.metaFree[n-1]
		p.metaFree[n-1] = nil
		p.metaFree = p.metaFree[:n-1]
		return m
	}
	//mars:alloc TestProgramSteadyStateAllocs cold-start pool refill only; steady state hits the free list
	return &PacketMeta{}
}

func (p *Program) releaseMeta(m *PacketMeta) {
	*m = PacketMeta{}
	//mars:alloc TestProgramSteadyStateAllocs the free list keeps its capacity; steady state recycles without growing
	p.metaFree = append(p.metaFree, m)
}

// New creates the program. paths is the control-plane PathID table (the
// consensus hash chain + MAT entries).
func New(cfg Config, topo *topology.Topology, paths *pathid.Table, notifier Notifier) *Program {
	return NewResident(cfg, topo, paths, notifier, nil)
}

// NewResident creates a program whose per-switch state is allocated only
// for switches in the resident set; nil means every switch. A
// netsim.Sharded run attaches one resident program per hook owner — a
// switch's hooks always reach its one owner, so per-switch state need
// exist only there, and total register memory stays flat as the owner
// count grows. Of the resident switches, only those with a host behind
// them get register tables (see switchState). Per-switch accessors are
// nil-safe wherever state is absent (SetThreshold and FlushSwitch no-op;
// RTSnapshot/RTSince report nothing).
func NewResident(cfg Config, topo *topology.Topology, paths *pathid.Table, notifier Notifier, resident []topology.NodeID) *Program {
	p := &Program{Cfg: cfg, Topo: topo, Paths: paths, Notifier: notifier}
	p.cdc = cfg.Codec
	if p.cdc == nil {
		p.cdc = Mars11{}
	}
	p.hopBytes, p.stride = int32(p.cdc.HopBytes()), p.cdc.EpochStride()
	hostPort := func(pt topology.Port) bool { return topo.IsHost(pt.Peer) }
	p.ord = make([]int32, len(topo.Nodes))
	for i, n := range topo.Nodes {
		p.ord[i] = -1
		if n.Kind == topology.KindSwitch && slices.ContainsFunc(n.Ports, hostPort) {
			p.ord[i] = int32(p.edges)
			p.edges++
		}
	}
	p.states = make([]switchState, len(topo.Nodes))
	populate := func(i topology.NodeID) {
		if topo.Nodes[i].Kind != topology.KindSwitch {
			return
		}
		st := &p.states[i]
		st.thresholds = make(map[FlowID]netsim.Time)
		if p.ord[i] >= 0 {
			p.resetTables(st)
		}
	}
	if resident == nil {
		for i := range topo.Nodes {
			populate(topology.NodeID(i))
		}
	} else {
		for _, sw := range resident {
			populate(sw)
		}
	}
	p.sinkOf = make([]topology.NodeID, len(topo.Nodes))
	for i := range p.sinkOf {
		p.sinkOf[i] = -1
	}
	for _, h := range topo.Hosts() {
		if sw, ok := topo.EdgeSwitchOf(h); ok {
			p.sinkOf[h] = sw
		}
	}
	return p
}

// resetTables gives an edge switch empty register tables.
func (p *Program) resetTables(st *switchState) {
	st.it, st.et, st.rt = NewIngressTable(p.edges), NewEgressTable(p.edges), NewRingTable(ringSize)
	st.telemEpoch = make(map[FlowID]int64)
}

// Resident reports whether sw's state lives in this program instance.
func (p *Program) Resident(sw topology.NodeID) bool {
	return int(sw) < len(p.states) && p.states[sw].thresholds != nil
}

// EpochOf converts a time to a telemetry epoch ID.
func (p *Program) EpochOf(t netsim.Time) uint32 {
	return uint32(t / EpochDuration)
}

// FlushSwitch wipes sw's register state — Ingress Table, Egress Table,
// Ring Table, dynamic thresholds, and the per-flow telemetry epoch cache —
// as a switch reboot does to P4 register arrays. The controller is not
// informed: until its next threshold push the switch runs on defaults,
// which is exactly the mid-epoch blind spot the switch-reboot gray
// scenario exercises. A switch without register tables (no host behind
// it) still loses its thresholds. No-op for hosts.
func (p *Program) FlushSwitch(sw topology.NodeID) {
	st := &p.states[sw]
	if st.thresholds == nil {
		return
	}
	if st.it != nil {
		p.resetTables(st)
	}
	clear(st.thresholds)
	st.lastNotify = 0
	st.notified = false
}

// SetThreshold installs a dynamic latency threshold for flow at switch sw.
// The control plane pushes a flow's value to exactly the switches on its
// shortest paths, the only ones its telemetry packets cross; every other
// switch keeps DefaultThreshold for the flow and never reads it.
func (p *Program) SetThreshold(sw topology.NodeID, flow FlowID, d netsim.Time) {
	if p.states[sw].thresholds == nil {
		return
	}
	p.states[sw].thresholds[flow] = d
}

// threshold returns the latency threshold in force for flow at sw.
func (p *Program) threshold(sw topology.NodeID, flow FlowID) netsim.Time {
	if d, ok := p.states[sw].thresholds[flow]; ok {
		return d
	}
	return DefaultThreshold
}

// RTSnapshot returns the sink switch's Ring Table contents oldest-first.
// The control plane's collection cost is accounted by the caller.
func (p *Program) RTSnapshot(sw topology.NodeID) []RTRecord {
	if p.states[sw].rt == nil {
		return nil
	}
	return p.states[sw].rt.Snapshot()
}

// RTSince returns the records of sw's Ring Table that arrived after t,
// oldest-first (RingTable.Since); nil when none did or sw keeps no table.
func (p *Program) RTSince(sw topology.NodeID, t netsim.Time) []RTRecord {
	if p.states[sw].rt == nil {
		return nil
	}
	return p.states[sw].rt.Since(t)
}

// notify sends a notification unless suppressed by the per-switch window.
func (p *Program) notify(s *netsim.Simulator, sw topology.NodeID, n Notification) {
	st := &p.states[sw]
	if st.notified && s.Now()-st.lastNotify < p.Cfg.NotifyWindow {
		p.Stats.SuppressedNotifications++
		return
	}
	st.lastNotify = s.Now()
	st.notified = true
	p.Stats.Notifications++
	if p.Notifier != nil {
		p.Notifier.Notify(n)
	}
}

// OnForward implements the switch pipeline for one packet at one switch.
func (p *Program) OnForward(s *netsim.Simulator, sw topology.NodeID, inPort, outPort topology.PortID, pkt *netsim.Packet, qlen int) netsim.Action {
	now := s.Now()
	epoch := p.EpochOf(now)

	inPeer := p.Topo.Node(sw).Ports[inPort].Peer
	outPeer := p.Topo.Node(sw).Ports[outPort].Peer
	isSource := p.Topo.IsHost(inPeer)
	isSink := p.Topo.IsHost(outPeer)

	var meta *PacketMeta
	if isSource {
		// Source switch: attach the PathID field, count the flow, and
		// possibly promote this packet to the epoch's telemetry packet.
		meta = p.acquireMeta()
		meta.SourceSwitch = sw
		pkt.Meta = meta
		pkt.ExtraBytes += int32(p.Cfg.PathCfg.HeaderBytes())
		sink := p.sinkOf[pkt.Dst]
		st := &p.states[sw]
		mark, lastCount := st.it.Record(p.ord[sink], epoch, pkt.Size)
		if mark && epoch%p.stride == 0 {
			meta.hdr = INTHeader{
				SourceTS:       now,
				LastEpochCount: lastCount,
				EpochID:        epoch,
			}
			meta.INT = &meta.hdr
			pkt.ExtraBytes += int32(p.cdc.WireBytes())
			p.Stats.TelemetryPackets++
		}
	} else {
		var ok bool
		meta, ok = pkt.Meta.(*PacketMeta)
		if !ok || meta == nil {
			// Packet entered the network before the program attached (or a
			// foreign pipeline); treat as untracked.
			return netsim.ActionForward
		}
	}

	// PathID chaining with the consensus port conventions.
	in := uint16(inPort)
	if isSource {
		in = pathid.HostPort
	}
	out := uint16(outPort)
	if isSink {
		out = pathid.HostPort
	}
	ctrl := uint8(0)
	if p.Paths != nil {
		ctrl = p.Paths.ControlFor(sw, meta.PathID, in, out)
	}
	meta.PathID = pathid.Step(p.Cfg.PathCfg, meta.PathID, sw, in, out, ctrl)

	flow := FlowID{Src: meta.SourceSwitch, Sink: p.sinkOf[pkt.Dst]}

	// Telemetry packet processing at every hop: accumulate the queue depth
	// (in-network computation), grow the packet by the codec's per-hop
	// width (perhop's stack entry), let the codec update its slot, then
	// run the latency check against the dynamic threshold.
	if meta.INT != nil {
		meta.INT.TotalQueueDepth += uint32(qlen)
		pkt.ExtraBytes += p.hopBytes
		p.cdc.OnHop(meta.INT, pkt.ID)
		latency := now - meta.INT.SourceTS
		if !meta.INT.Flagged && latency > p.threshold(sw, flow) {
			meta.INT.Flagged = true // suppress downstream re-detection
			p.notify(s, sw, Notification{
				Kind: NotifyHighLatency, Switch: sw, Flow: flow,
				Time: now, Latency: latency,
			})
		}
	}

	if isSink {
		st := &p.states[sw]
		src := p.ord[flow.Src]
		st.et.Record(src, meta.PathID, epoch, pkt.Size)
		if meta.INT != nil {
			e := meta.INT.EpochID
			sinkCount := st.et.FlowLastEpochCount(src, e)
			pathCount, pathBytes := st.et.PathLastEpoch(src, meta.PathID, e)
			rec := RTRecord{
				Flow:            flow,
				PathID:          meta.PathID,
				Epoch:           e,
				Latency:         now - meta.INT.SourceTS,
				SourceCount:     meta.INT.LastEpochCount,
				SinkCount:       sinkCount,
				PathCount:       pathCount,
				SlotIndex:       meta.INT.SlotIndex,
				SlotHops:        meta.INT.SlotHops,
				PathBytes:       pathBytes,
				TotalQueueDepth: meta.INT.TotalQueueDepth,
				Arrival:         now,
			}
			// Epoch-gap drop detection (§4.3.2): missing telemetry epochs
			// mean the sampled packets themselves were lost. The expected
			// spacing is the codec's promotion stride (1 for the paper's
			// every-epoch encoding), so only whole missing promotions count.
			v := st.telemEpoch[flow] // epoch+1; 0 = never seen
			had := v > 0
			if had {
				last := uint32(v - 1)
				if e > last {
					if missed := (e - last - 1) / p.stride; missed > 0 {
						rec.EpochGap = missed
						p.notify(s, sw, Notification{
							Kind: NotifyDrop, Switch: sw, Flow: flow,
							Time: now, EpochGap: rec.EpochGap,
						})
					}
				}
			}
			if !had || int64(e)+1 > v {
				st.telemEpoch[flow] = int64(e) + 1
			}
			// Count-mismatch drop detection: source saw more packets last
			// epoch than the sink received. The margin scales with volume:
			// under transient queueing the path latency can reach a third
			// of an epoch, displacing that share of packets across the
			// boundary without any loss.
			margin := max(DropCountThreshold, rec.SourceCount/dropRelMargin)
			if rec.SourceCount > rec.SinkCount+margin {
				p.notify(s, sw, Notification{
					Kind: NotifyDrop, Switch: sw, Flow: flow,
					Time: now, Dropped: int64(rec.SourceCount - rec.SinkCount),
				})
			}
			st.rt.Push(rec)
			if p.OnRecord != nil {
				p.OnRecord(sw, rec)
			}
		}
		// Strip all MARS headers before the host link: monitoring is
		// transparent to end hosts.
		pkt.ExtraBytes = 0
		pkt.Meta = nil
		p.releaseMeta(meta)
		return netsim.ActionForward
	}

	// The extra header bytes will cross the link out of this switch.
	p.Stats.TelemetryLinkBytes += int64(pkt.ExtraBytes)
	return netsim.ActionForward
}

// OnDrop recycles the packet's PacketMeta: the simulator pools dropped
// packets, so their meta must be detached and returned with them.
func (p *Program) OnDrop(s *netsim.Simulator, sw topology.NodeID, port topology.PortID, pkt *netsim.Packet, reason netsim.DropReason) {
	if meta, ok := pkt.Meta.(*PacketMeta); ok && meta != nil {
		pkt.Meta = nil
		p.releaseMeta(meta)
	}
}

var _ netsim.Hooks = (*Program)(nil)
