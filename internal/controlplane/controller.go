// Package controlplane implements the MARS controller: it periodically
// pulls the "latency" field of sink-switch Ring Tables (the paper uses the
// P4Runtime API; here every exchange travels an explicit control channel
// with counted bytes), feeds per-flow reservoirs, pushes refreshed dynamic
// thresholds down to the data plane, and — when a data-plane notification
// arrives — collects the Ring Tables of all edge switches as diagnosis
// data for root cause analysis (§4.3, §4.4). The other end of every
// exchange — in the paper, each switch's P4Runtime server — is the Agent.
//
// The channel (internal/ctrlchan) may lose, delay, reorder, or duplicate
// messages, so the controller is built to survive its own control plane
// being faulty: Ring Table collections, refresh pulls and threshold pushes
// are three kinds of one request lifecycle (issue → timeout → settle) with
// a per-request deadline, capped exponential backoff and a retry budget;
// channel sequence numbers deduplicate duplicated or reordered
// notifications and responses. When some
// edge switches never answer a collection within the retry budget, the
// controller does not stall: it hands RCA a partial diagnosis tagged with
// the missing sinks, and the analyzer annotates its culprits with the
// resulting confidence instead of silently assuming complete data.
package controlplane

import (
	"math/rand"
	"slices"

	"mars/internal/ctrlchan"
	"mars/internal/dataplane"
	"mars/internal/netsim"
	"mars/internal/reservoir"
	"mars/internal/topology"
)

// Config parameterizes the controller.
type Config struct {
	// RefreshPeriod is how often reservoirs are fed and thresholds pushed.
	RefreshPeriod netsim.Time
	// ResponseWindow rate-limits diagnosis collections: the control plane
	// responds to at most one notification per window (§4.4).
	ResponseWindow netsim.Time
	// Seed drives reservoir replacement randomness and retry jitter.
	Seed int64

	// RequestTimeout is the per-request response deadline for Ring Table
	// collections, refresh pulls, and threshold pushes.
	RequestTimeout netsim.Time
	// MaxRetries is the retry budget per request after the first attempt;
	// 0 disables retransmission (the no-retry ablation).
	MaxRetries int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it, capped at BackoffMax.
	BackoffBase netsim.Time
	// BackoffMax caps the exponential backoff.
	BackoffMax netsim.Time
}

// Clock is the controller's scheduling seam. In the simulator it is the
// discrete-event heap itself (*netsim.Simulator implements it directly and
// callbacks run at virtual times); in the real-process deployment mode it
// is a serialized wall-clock run loop (internal/rtclock) whose Time values
// are nanoseconds since process start. The controller never compares its
// clock against record arrival stamps — recency anchoring uses the
// data-plane's own timeline via Diagnosis.AsOf — so the two interpretations
// never mix.
type Clock interface {
	// Now returns the current time on the clock's timeline.
	Now() netsim.Time
	// After runs fn once, d after Now.
	After(d netsim.Time, fn func())
	// At runs fn once at absolute time t (immediately if t has passed).
	At(t netsim.Time, fn func())
}

const (
	// reservoirC is the deviation multiple C of θ = m + C·σ (§4.3) in the
	// controller's per-flow reservoirs, raised from the paper's 3 to 6 MAD
	// units (~4σ-equivalent for Gaussian noise): multi-hop latency under
	// Poisson cross-traffic is heavy-tailed, and a 3-MAD threshold flags a
	// few percent of healthy telemetry records.
	reservoirC = 6
	// backoffJitter randomizes each backoff by ±backoffJitter/2 of its
	// value so retries to many switches do not synchronize.
	backoffJitter = 0.5
)

// DefaultConfig matches the data plane's 100 ms epochs: thresholds refresh
// every 200 ms, diagnosis at most once per 500 ms. Reliability knobs assume
// a ~1 ms control RTT: 20 ms deadlines, 3 retries, 10→80 ms backoff — a
// full retry cycle fits well inside one response window.
func DefaultConfig() Config {
	return Config{
		RefreshPeriod:  200 * netsim.Millisecond,
		ResponseWindow: 500 * netsim.Millisecond,
		Seed:           1,
		RequestTimeout: 20 * netsim.Millisecond,
		MaxRetries:     3,
		BackoffBase:    10 * netsim.Millisecond,
		BackoffMax:     80 * netsim.Millisecond,
	}
}

// Diagnosis is one on-demand collection: the trigger plus the telemetry
// snapshot pulled from the edge switches that answered in time.
type Diagnosis struct {
	Trigger dataplane.Notification
	Records []dataplane.RTRecord
	Time    netsim.Time
	// AsOf is the newest snapshot stamp among the collect responses (the
	// data-plane timeline moment the collected records are current as of).
	// Zero in the simulator, where collection is synchronous and Time
	// already sits on the data's timeline; the deployment mode's analyzer
	// anchors record recency to AsOf instead of the controller's wall clock.
	AsOf netsim.Time
	// Requested is how many edge switches the collection contacted.
	Requested int
	// MissingSinks lists the edge switches that never responded within
	// the retry budget; empty for a complete collection.
	MissingSinks []topology.NodeID
}

// Coverage returns the fraction of contacted sinks that answered (1 for a
// complete collection, and for the degenerate zero-sink topology).
func (d Diagnosis) Coverage() float64 {
	if d.Requested == 0 {
		return 1
	}
	return float64(d.Requested-len(d.MissingSinks)) / float64(d.Requested)
}

// Partial reports whether any contacted sink is missing.
func (d Diagnosis) Partial() bool { return len(d.MissingSinks) > 0 }

// BandwidthStats counts every control-channel byte for the Fig. 9 study,
// each at its sender when the message is put on the channel: the Agent
// counts NotificationBytes, CollectionBytes, RefreshBytes and AckBytes, the
// Controller everything else.
type BandwidthStats struct {
	// NotificationBytes: data plane -> control plane triggers.
	NotificationBytes int64
	// CollectionBytes: Ring Table pulls (diagnosis data); a retransmitted
	// collection costs its true repeated bytes.
	CollectionBytes int64
	// RefreshBytes: periodic latency pulls for reservoir upkeep.
	RefreshBytes int64
	// ThresholdPushBytes: control plane -> data plane threshold updates.
	ThresholdPushBytes int64
	// RequestBytes: collection and refresh request frames (kept out of
	// DiagnosisBytes so the Fig. 9 bar keeps its original definition).
	RequestBytes int64
	// AckBytes: threshold acknowledgement frames.
	AckBytes int64
	// Diagnoses counts completed collections.
	Diagnoses int64
	// PartialDiagnoses counts collections that finished with missing sinks.
	PartialDiagnoses int64
	// SuppressedNotifications counts notifications that arrived inside the
	// response window (the latest one is retained, not dropped).
	SuppressedNotifications int64
	// DuplicateNotifications counts channel-duplicated or reordered
	// re-deliveries discarded by sequence-number dedup.
	DuplicateNotifications int64
	// Retries counts request retransmissions (collect + refresh + push).
	Retries int64
}

// DiagnosisBytes returns the on-demand (trigger + collection) total, the
// "Diagnosis" bar of Fig. 9.
func (b BandwidthStats) DiagnosisBytes() int64 {
	return b.NotificationBytes + b.CollectionBytes
}

// collection is one in-flight diagnosis: per-sink requests race their
// timeouts, and the diagnosis finalizes when every sink has either
// answered or exhausted its retry budget.
type collection struct {
	trigger dataplane.Notification
	// staged holds the records each accepted response lent, in arrival order.
	staged []dataplane.RTRecord
	// pending holds the sinks still owed an answer; the collection is
	// finalized the moment it empties.
	pending   map[topology.NodeID]bool
	missing   []topology.NodeID
	requested int
	// asOf tracks the newest response Stamp (zero on the in-sim path).
	asOf netsim.Time
}

// reqKind names the three request/response exchanges the controller runs
// over the channel. They share one lifecycle — issue, timeout, settle —
// and differ only in the message, in when a request has gone stale, and
// in what exhausting the retry budget means.
type reqKind uint8

const (
	// reqRefresh is a refresh pull, settled by a refresh response.
	reqRefresh reqKind = iota
	// reqCollect is a Ring Table collection from one sink of one
	// diagnosis, settled by a collect response.
	reqCollect
	// reqPush is a threshold push, settled by its acknowledgement.
	reqPush
)

// request is one outstanding attempt, keyed by its channel sequence number.
type request struct {
	kind reqKind
	sw   topology.NodeID
	// attempt counts the retries behind this attempt.
	attempt int
	col     *collection // reqCollect
}

// noteKey deduplicates notification deliveries. The sequence number alone
// is not enough: every Agent mints its own Seq stream, and the multi-process
// deployment runs one per switch group, so streams from different switches
// collide.
type noteKey struct {
	sw  topology.NodeID
	seq uint64
}

// flowPush is what the controller keeps of one flow's threshold: the value
// it wants installed, and the switches that check the flow's telemetry —
// the union of the shortest paths between its edge switches, ascending.
type flowPush struct {
	want     netsim.Time
	switches []topology.NodeID
}

// switchPush is one switch's threshold convergence: the entries it has not
// acknowledged, in the order they were queued, and whether a push carrying
// them is in flight. At most one is, and sent holds its entries: a push
// lends them, and a perfect channel's ack, inside the push's Send, deletes
// from unacked.
type switchPush struct {
	unacked  []ctrlchan.Threshold
	sent     []ctrlchan.Threshold
	inFlight bool
}

// Controller is the MARS control plane.
type Controller struct {
	Cfg   Config
	Topo  *topology.Topology
	Bytes BandwidthStats

	// OnDiagnosis receives each collected diagnosis (the RCA entry point).
	OnDiagnosis func(d Diagnosis)
	// ToSwitch is the in-process delivery hook of the switch end
	// (Agent.Deliver), handed to the transport with every request; nil when
	// the transport crosses a process boundary.
	ToSwitch func(ctrlchan.Message)

	clock      Clock
	tr         ctrlchan.Transport
	rng        *rand.Rand
	reservoirs map[dataplane.FlowID]*reservoir.Reservoir
	// lastSeen tracks, per sink switch, the arrival time of the newest RT
	// record already fed to reservoirs (the refresh pull watermark).
	lastSeen      map[topology.NodeID]netsim.Time
	lastDiagnosis netsim.Time
	haveDiagnosed bool
	edgeSwitches  []topology.NodeID
	started       bool

	// Channel sequencing and outstanding-request state.
	nextSeq     uint64
	seenNotes   map[noteKey]bool
	outstanding map[uint64]request
	// refreshPending marks sinks whose pull is outstanding or backing off,
	// so a periodic round does not pile a second one onto them.
	refreshPending map[topology.NodeID]bool
	flows          map[dataplane.FlowID]*flowPush
	pushes         map[topology.NodeID]*switchPush
	// Scratch reused by every refresh response: the flows it updated and
	// the switches owed a push. pushThresholds copies entries by value.
	refreshSeen    map[dataplane.FlowID]bool
	refreshUpdated []ctrlchan.Threshold
	pushDue        []topology.NodeID
	// staged is a finalized collection's staging buffer, for the next one.
	staged []dataplane.RTRecord

	// suppressed retains the newest notification that arrived inside the
	// response window, so a diagnosis fires when the window reopens
	// instead of the trigger being silently dropped.
	suppressed     *dataplane.Notification
	flushScheduled bool
	// collecting counts the collections started and not yet finalized, one
	// whose sinks are backing off between retries included.
	collecting int
}

// New wires a controller to a clock and a transport: the simulator and a
// ctrlchan.Channel, or an rtclock loop and a UDP transport — the same
// reliability machinery runs against either. Everything the switches send
// reaches it through Deliver. Call Start to begin the refresh loop.
func New(cfg Config, clock Clock, topo *topology.Topology, tr ctrlchan.Transport) *Controller {
	c := &Controller{
		Cfg:            cfg,
		Topo:           topo,
		clock:          clock,
		tr:             tr,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		reservoirs:     make(map[dataplane.FlowID]*reservoir.Reservoir),
		lastSeen:       make(map[topology.NodeID]netsim.Time),
		seenNotes:      make(map[noteKey]bool),
		outstanding:    make(map[uint64]request),
		refreshPending: make(map[topology.NodeID]bool),
		flows:          make(map[dataplane.FlowID]*flowPush),
		pushes:         make(map[topology.NodeID]*switchPush),
		refreshSeen:    make(map[dataplane.FlowID]bool),
	}
	for _, h := range topo.Hosts() {
		if sw, ok := topo.EdgeSwitchOf(h); ok {
			c.edgeSwitches = append(c.edgeSwitches, sw)
		}
	}
	slices.Sort(c.edgeSwitches)
	c.edgeSwitches = slices.Compact(c.edgeSwitches)
	return c
}

// Quiet reports whether the controller owes no diagnosis: no collection
// is in flight and no suppressed notification waits for its response
// window. Refresh pulls and threshold pushes are periodic upkeep and never
// make it false.
func (c *Controller) Quiet() bool { return c.collecting == 0 && c.suppressed == nil }

// Start schedules the periodic reservoir/threshold refresh loop.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	var tick func()
	tick = func() {
		c.Refresh()
		c.clock.After(c.Cfg.RefreshPeriod, tick)
	}
	c.clock.After(c.Cfg.RefreshPeriod, tick)
}

// ReservoirFor returns (creating if needed) the flow's reservoir.
func (c *Controller) ReservoirFor(flow dataplane.FlowID) *reservoir.Reservoir {
	r := c.reservoirs[flow]
	if r == nil {
		cfg := reservoir.DefaultConfig()
		cfg.C = reservoirC
		r = reservoir.New(cfg, c.rng)
		c.reservoirs[flow] = r
	}
	return r
}

// ThresholdOf returns the dynamic threshold currently derived for flow.
func (c *Controller) ThresholdOf(flow dataplane.FlowID) netsim.Time {
	return netsim.Time(c.ReservoirFor(flow).Threshold())
}

// backoff returns the jittered exponential delay before retry `attempt`
// (1-based: the first retry uses BackoffBase).
func (c *Controller) backoff(attempt int) netsim.Time {
	d := c.Cfg.BackoffBase
	for i := 1; i < attempt && d < c.Cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.Cfg.BackoffMax {
		d = c.Cfg.BackoffMax
	}
	if d > 0 {
		d += netsim.Time(float64(d) * backoffJitter * (c.rng.Float64() - 0.5))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// --- The request lifecycle -------------------------------------------------
//
// Every controller → switch exchange goes through issue/timeout/settle, so
// an RTT-estimating deadline or a per-request latency histogram attaches
// here once (issue knows the send time, settle the answer time) and serves
// all three kinds.

// issue sends one attempt of r unless it has gone stale: its collection
// already resolved this sink, or the switch has a push in flight or
// nothing left unacknowledged. A refresh pull is never stale.
func (c *Controller) issue(r request) {
	m := ctrlchan.Message{Switch: r.sw}
	switch r.kind {
	case reqRefresh:
		c.refreshPending[r.sw] = true
		m.Kind, m.Watermark, m.Wire = ctrlchan.KindRefreshRequest, c.lastSeen[r.sw], ctrlchan.RefreshRequestBytes
		c.Bytes.RequestBytes += m.Wire
	case reqCollect:
		if !r.col.pending[r.sw] {
			return
		}
		m.Kind, m.Note, m.Wire = ctrlchan.KindCollectRequest, r.col.trigger, ctrlchan.CollectRequestBytes
		c.Bytes.RequestBytes += m.Wire
	case reqPush:
		sp := c.pushes[r.sw]
		if sp.inFlight || len(sp.unacked) == 0 {
			return
		}
		sp.inFlight = true
		sp.sent = append(sp.sent[:0], sp.unacked...)
		m.Kind, m.Thresholds = ctrlchan.KindThresholdPush, sp.sent
		m.Wire = int64(len(m.Thresholds)) * dataplane.ThresholdPushBytes
		c.Bytes.ThresholdPushBytes += m.Wire
	}
	c.nextSeq++
	seq := c.nextSeq
	m.Seq = seq
	c.outstanding[seq] = r
	c.tr.Send(ctrlchan.ToSwitch, m, c.ToSwitch)
	// A perfect channel answers inside Send; arming the deadline only for
	// requests still outstanding keeps the event heap untouched on the
	// reliable path.
	if _, pending := c.outstanding[seq]; pending {
		c.clock.After(c.Cfg.RequestTimeout, func() { c.timeout(seq) })
	}
}

// timeout fires at an attempt's deadline: if the attempt is still
// unanswered it is retried after a backoff while the budget lasts, and
// given up otherwise. A retried push is re-checked for staleness when its
// backoff fires (in issue), not here, and carries whatever is unacknowledged
// by then.
func (c *Controller) timeout(seq uint64) {
	r, ok := c.outstanding[seq]
	if !ok {
		return // answered in time
	}
	delete(c.outstanding, seq)
	switch r.kind {
	case reqRefresh:
	case reqCollect:
		if !r.col.pending[r.sw] {
			return
		}
	case reqPush:
		c.pushes[r.sw].inFlight = false
	}
	if r.attempt < c.Cfg.MaxRetries {
		r.attempt++
		c.Bytes.Retries++
		c.clock.After(c.backoff(r.attempt), func() { c.issue(r) })
		return
	}
	switch r.kind {
	case reqRefresh:
		// Given up until the next periodic round; the watermark is
		// unchanged, so no data is lost — only delayed.
		c.refreshPending[r.sw] = false
	case reqCollect:
		r.col.missing = append(r.col.missing, r.sw)
		c.sinkResolved(r.col, r.sw)
	case reqPush:
		// Left unacknowledged, so the next refresh of any of their flows
		// sends the entries again even if its value did not move.
	}
}

// settle matches a response to its outstanding request and retires it.
// Duplicates, post-timeout stragglers and responses of the wrong kind for
// their sequence number match nothing.
func (c *Controller) settle(seq uint64, kind reqKind) (request, bool) {
	r, ok := c.outstanding[seq]
	if !ok || r.kind != kind {
		return request{}, false
	}
	delete(c.outstanding, seq)
	return r, true
}

// Deliver dispatches one switch → controller message: the handler a socket
// transport's read loop hands frames to, and the delivery hook an in-process
// Agent sends with.
func (c *Controller) Deliver(m ctrlchan.Message) {
	//mars:partial only switch->controller kinds arrive here; requests and pushes travel the other direction and are handled by Agent.Deliver
	switch m.Kind {
	case ctrlchan.KindNotification:
		c.onNotification(m)
	case ctrlchan.KindCollectResponse:
		c.onCollectResponse(m)
	case ctrlchan.KindRefreshResponse:
		c.onRefreshResponse(m)
	case ctrlchan.KindThresholdAck:
		c.onThresholdAck(m)
	}
}

// --- Refresh (reservoir upkeep + threshold pushes) ------------------------

// Refresh starts one incremental pull round: every sink without an
// outstanding pull is asked for records newer than its watermark. The
// responses feed the reservoirs and drive threshold pushes as they arrive;
// a sink whose pull is still pending (timed out and backing off) is
// skipped rather than piled onto.
func (c *Controller) Refresh() {
	for _, sw := range c.edgeSwitches {
		if c.refreshPending[sw] {
			continue
		}
		c.issue(request{kind: reqRefresh, sw: sw})
	}
}

// onRefreshResponse feeds the reservoirs and pushes refreshed thresholds
// for the flows this sink updated.
func (c *Controller) onRefreshResponse(m ctrlchan.Message) {
	req, ok := c.settle(m.Seq, reqRefresh)
	if !ok {
		return
	}
	c.refreshPending[req.sw] = false

	last := c.lastSeen[req.sw]
	newest := last
	updated := c.refreshUpdated[:0]
	clear(c.refreshSeen)
	for _, r := range m.Records {
		if r.Arrival <= last {
			continue // straggler overlap with an already-consumed pull
		}
		if r.Arrival > newest {
			newest = r.Arrival
		}
		c.ReservoirFor(r.Flow).Input(float64(r.Latency))
		if !c.refreshSeen[r.Flow] {
			c.refreshSeen[r.Flow] = true
			updated = append(updated, ctrlchan.Threshold{Flow: r.Flow})
		}
	}
	c.lastSeen[req.sw] = newest
	for i := range updated {
		updated[i].Value = c.ThresholdOf(updated[i].Flow)
	}
	c.refreshUpdated = updated
	c.pushThresholds(updated)
}

// --- Threshold pushes (acknowledged, one frame per switch) ----------------

// pushThresholds queues each wanted threshold at the switches that check
// its flow's telemetry, then sends every switch that owes an
// acknowledgement for one of these flows a single push carrying all its
// unacknowledged entries; a switch with a push in flight gets them after
// the ack. A value that did not move costs no bytes, except at a switch
// that never acknowledged it (its push spent the retry budget).
func (c *Controller) pushThresholds(wanted []ctrlchan.Threshold) {
	c.pushDue = c.pushDue[:0]
	for _, e := range wanted {
		fp := c.flows[e.Flow]
		moved := fp == nil || fp.want != e.Value
		if fp == nil {
			fp = &flowPush{switches: c.switchesOf(e.Flow)}
			c.flows[e.Flow] = fp
		}
		fp.want = e.Value
		for _, sw := range fp.switches {
			sp := c.pushes[sw]
			if sp == nil {
				sp = &switchPush{}
				c.pushes[sw] = sp
			}
			i := slices.IndexFunc(sp.unacked, func(u ctrlchan.Threshold) bool { return u.Flow == e.Flow })
			switch {
			case moved && i >= 0:
				sp.unacked[i] = e
			case moved:
				sp.unacked = append(sp.unacked, e)
			case i < 0:
				continue // unchanged and acknowledged
			}
			c.pushDue = append(c.pushDue, sw)
		}
	}
	slices.Sort(c.pushDue)
	for _, sw := range slices.Compact(c.pushDue) {
		c.issue(request{kind: reqPush, sw: sw})
	}
}

// switchesOf returns the switches at which the data plane checks flow's
// telemetry: the union of the shortest paths between its edge switches
// (ECMP forwards on no other), ascending.
func (c *Controller) switchesOf(flow dataplane.FlowID) []topology.NodeID {
	var sws []topology.NodeID
	for _, p := range c.Topo.AllShortestPaths(flow.Src, flow.Sink) {
		sws = append(sws, p...)
	}
	slices.Sort(sws)
	return slices.Compact(sws)
}

// onThresholdAck retires the entries the acknowledged push installed — one
// whose value moved while it was in flight stays — and sends the switch
// whatever is still unacknowledged.
func (c *Controller) onThresholdAck(m ctrlchan.Message) {
	req, ok := c.settle(m.Seq, reqPush)
	if !ok {
		return
	}
	sp := c.pushes[req.sw]
	sp.inFlight = false
	sp.unacked = slices.DeleteFunc(sp.unacked, func(e ctrlchan.Threshold) bool { return slices.Contains(m.Thresholds, e) })
	c.issue(request{kind: reqPush, sw: req.sw}) // no-op unless entries were queued or moved meanwhile
}

// --- Notifications and diagnosis collection -------------------------------

// onNotification deduplicates deliveries and applies the response window.
// A notification inside the window is not dropped: the newest one is
// retained and fires a diagnosis the moment the window reopens.
func (c *Controller) onNotification(m ctrlchan.Message) {
	k := noteKey{sw: m.Switch, seq: m.Seq}
	if c.seenNotes[k] {
		c.Bytes.DuplicateNotifications++
		return
	}
	c.seenNotes[k] = true
	now := c.clock.Now()
	if c.haveDiagnosed && now-c.lastDiagnosis < c.Cfg.ResponseWindow {
		c.Bytes.SuppressedNotifications++
		n := m.Note
		c.suppressed = &n
		if !c.flushScheduled {
			c.flushScheduled = true
			c.clock.At(c.lastDiagnosis+c.Cfg.ResponseWindow, c.flushSuppressed)
		}
		return
	}
	c.beginDiagnosis(m.Note)
}

// flushSuppressed fires the retained in-window trigger once the response
// window has reopened (re-arming itself if a newer diagnosis moved the
// window meanwhile).
func (c *Controller) flushSuppressed() {
	c.flushScheduled = false
	if c.suppressed == nil {
		return
	}
	now := c.clock.Now()
	if c.haveDiagnosed && now-c.lastDiagnosis < c.Cfg.ResponseWindow {
		c.flushScheduled = true
		c.clock.At(c.lastDiagnosis+c.Cfg.ResponseWindow, c.flushSuppressed)
		return
	}
	n := *c.suppressed
	c.suppressed = nil
	c.beginDiagnosis(n)
}

// beginDiagnosis opens a response window and starts the collection.
func (c *Controller) beginDiagnosis(n dataplane.Notification) {
	c.haveDiagnosed = true
	c.lastDiagnosis = c.clock.Now()
	c.suppressed = nil
	c.startCollection(n)
}

// startCollection pulls diagnosis data from every edge switch's Ring
// Table. Only edge switches are contacted — MARS's Motivation #1 — so
// core switches carry no collection load. Each sink's request races a
// timeout with retries; sinks that exhaust the budget are reported as
// missing rather than stalling the diagnosis.
func (c *Controller) startCollection(trigger dataplane.Notification) {
	c.collecting++
	col := &collection{
		trigger:   trigger,
		staged:    c.staged,
		pending:   make(map[topology.NodeID]bool, len(c.edgeSwitches)),
		requested: len(c.edgeSwitches),
	}
	c.staged = nil
	if col.requested == 0 {
		c.finalizeCollection(col)
		return
	}
	for _, sw := range c.edgeSwitches {
		col.pending[sw] = true
	}
	for _, sw := range c.edgeSwitches {
		c.issue(request{kind: reqCollect, sw: sw, col: col})
	}
}

// onCollectResponse folds one sink's snapshot into its collection.
func (c *Controller) onCollectResponse(m ctrlchan.Message) {
	req, ok := c.settle(m.Seq, reqCollect)
	if !ok || !req.col.pending[req.sw] {
		return
	}
	col := req.col
	if cap(col.staged)-len(col.staged) < len(m.Records) {
		// Room for every sink still owed an answer, should each send as many.
		col.staged = slices.Grow(col.staged, len(m.Records)*len(col.pending))
	}
	col.staged = append(col.staged, m.Records...)
	if m.Stamp > col.asOf {
		col.asOf = m.Stamp
	}
	c.sinkResolved(col, req.sw)
}

// sinkResolved retires sw from its collection — answered, or given up on —
// and finalizes the diagnosis once no sink is pending.
func (c *Controller) sinkResolved(col *collection, sw topology.NodeID) {
	delete(col.pending, sw)
	if len(col.pending) == 0 {
		c.finalizeCollection(col)
	}
}

// finalizeCollection copies the staged records into one exact-size slice,
// a collection's one record allocation, and hands the (possibly partial)
// diagnosis to RCA. It keeps the larger of its staging buffer and one an
// overlapping collection returned.
func (c *Controller) finalizeCollection(col *collection) {
	c.collecting--
	c.Bytes.Diagnoses++
	if len(col.missing) > 0 {
		c.Bytes.PartialDiagnoses++
	}
	staged := col.staged
	col.staged = nil
	if cap(staged) > cap(c.staged) {
		c.staged = staged[:0]
	}
	if c.OnDiagnosis != nil {
		var records []dataplane.RTRecord
		if len(staged) > 0 {
			records = make([]dataplane.RTRecord, len(staged))
			copy(records, staged)
		}
		c.OnDiagnosis(Diagnosis{
			Trigger:      col.trigger,
			Records:      records,
			Time:         c.clock.Now(),
			AsOf:         col.asOf,
			Requested:    col.requested,
			MissingSinks: col.missing,
		})
	}
}
