package dataplane

import (
	"math"
	"sort"

	"mars/internal/netsim"
	"mars/internal/pathid"
)

// epochCounter tracks per-key packet/byte counts for the current and
// previous epoch, the register pattern a P4 pipeline would use.
type epochCounter struct {
	epoch     uint32
	count     uint32
	bytes     uint64
	prevCount uint32
	prevBytes uint64
	prevEpoch uint32
}

// roll advances the counter to epoch e, shifting current into previous.
// Skipped epochs zero the previous window.
func (c *epochCounter) roll(e uint32) {
	if e == c.epoch {
		return
	}
	if e == c.epoch+1 {
		c.prevCount, c.prevBytes, c.prevEpoch = c.count, c.bytes, c.epoch
	} else {
		c.prevCount, c.prevBytes, c.prevEpoch = 0, 0, e-1
	}
	c.epoch = e
	c.count, c.bytes = 0, 0
}

// add records one packet of size b in epoch e.
func (c *epochCounter) add(e uint32, b int32) {
	c.roll(e)
	c.count++
	c.bytes += uint64(b)
}

// lastEpochCount returns the completed count for epoch e-1 as visible at
// epoch e.
func (c *epochCounter) lastEpochCount(e uint32) uint32 {
	if c.epoch == e && c.prevEpoch == e-1 {
		return c.prevCount
	}
	if c.epoch == e-1 {
		// Epoch e has produced no packets for this key yet; the "previous"
		// window is still the live one.
		return c.count
	}
	return 0
}

// IngressTable (IT) is the source-switch state: per-FlowID epoch counters
// and the bookkeeping that marks exactly one telemetry packet per flow per
// epoch (§4.2.2). FlowID is simplified to the sink switch because the
// source switch's own ID covers the other half. Entries are preallocated
// register slots indexed by the sink's edge ordinal (Program numbers the
// switches with a host behind them 0, 1, 2, … in node order), matching
// the fixed-size register arrays a P4 pipeline would use; Record is
// allocation-free.
type IngressTable struct {
	entries []itEntry
}

type itEntry struct {
	counter        epochCounter
	lastTelemEpoch uint32
	haveTelem      bool
}

// NewIngressTable returns an IT with one preallocated slot per possible
// sink (edges is the topology's count of host-facing switches).
func NewIngressTable(edges int) *IngressTable {
	return &IngressTable{entries: make([]itEntry, edges)}
}

// Record counts a packet toward (sink, epoch) and reports whether this
// packet should become the epoch's telemetry packet, together with the
// previous epoch's packet count to embed. sink is the edge ordinal.
func (it *IngressTable) Record(sink int32, epoch uint32, size int32) (mark bool, lastEpochCount uint32) {
	e := &it.entries[sink]
	e.counter.add(epoch, size)
	lastEpochCount = e.counter.lastEpochCount(epoch)
	if !e.haveTelem || e.lastTelemEpoch != epoch {
		e.haveTelem = true
		e.lastTelemEpoch = epoch
		return true, lastEpochCount
	}
	return false, lastEpochCount
}

// EgressTable (ET) is the sink-switch state: per-(FlowID, PathID) and
// per-FlowID epoch counters (§4.2.2). FlowID is simplified to the source
// switch at the sink, named by its edge ordinal as in IngressTable. The
// per-flow counters are preallocated slots indexed by that ordinal; the
// per-(flow, path) counters stay keyed by the sparse 16-bit PathID space,
// a map of pointers to counters allocated on a key's first packet.
type EgressTable struct {
	perPath map[etKey]*epochCounter
	perFlow []epochCounter
}

type etKey struct {
	src  int32
	path pathid.ID
}

// NewEgressTable returns an ET with one preallocated per-flow slot per
// possible source (edges is the topology's count of host-facing
// switches).
func NewEgressTable(edges int) *EgressTable {
	return &EgressTable{
		perPath: make(map[etKey]*epochCounter),
		perFlow: make([]epochCounter, edges),
	}
}

// Record counts an arriving packet from the source of edge ordinal src.
func (et *EgressTable) Record(src int32, path pathid.ID, epoch uint32, size int32) {
	k := etKey{src, path}
	c := et.perPath[k]
	if c == nil {
		//mars:alloc TestSinkRecordAllocs one counter per (src,path) on first touch only; steady state is a map hit
		c = &epochCounter{}
		et.perPath[k] = c
	}
	c.add(epoch, size)
	et.perFlow[src].add(epoch, size)
}

// FlowLastEpochCount returns the sink-side count of the flow in epoch-1.
func (et *EgressTable) FlowLastEpochCount(src int32, epoch uint32) uint32 {
	return et.perFlow[src].lastEpochCount(epoch)
}

// PathLastEpoch returns the per-path count and bytes for epoch-1.
func (et *EgressTable) PathLastEpoch(src int32, path pathid.ID, epoch uint32) (uint32, uint64) {
	c := et.perPath[etKey{src, path}]
	if c == nil {
		return 0, 0
	}
	n := c.lastEpochCount(epoch)
	var b uint64
	if c.epoch == epoch && c.prevEpoch == epoch-1 {
		b = c.prevBytes
	} else if c.epoch == epoch-1 {
		b = c.bytes
	}
	return n, b
}

// RTRecord is one Ring Table entry: the self-contained telemetry sample
// the control plane collects on demand for diagnosis (§4.2.2, §4.4).
type RTRecord struct {
	Flow   FlowID
	PathID pathid.ID
	Epoch  uint32
	// Latency is sink arrival time minus source timestamp.
	Latency netsim.Time
	// SourceCount is the source switch's packet count for the flow in the
	// previous epoch (from the INT header).
	SourceCount uint32
	// SinkCount is this sink's count for the flow in the previous epoch.
	SinkCount uint32
	// PathCount / PathBytes are the per-(flow,path) counts for the
	// previous epoch, used by traffic estimation and throughput signatures.
	PathCount uint32
	// SlotIndex and SlotHops are the INT header's pintlike slot as it
	// reached the sink (zero under every other codec); they sit in the
	// padding before PathBytes.
	SlotIndex, SlotHops uint8
	PathBytes           uint64
	// TotalQueueDepth is the in-network accumulated queue occupancy.
	TotalQueueDepth uint32
	// EpochGap is the number of missing telemetry epochs before this one
	// (> 0 reveals sustained drop events, §4.3.2).
	EpochGap uint32
	// Arrival is the sink arrival time.
	Arrival netsim.Time
}

// RingTable keeps the most recent Size telemetry records, overwriting the
// oldest ("that is why the table is called as ring").
type RingTable struct {
	buf  []RTRecord
	next int
	full bool
}

// NewRingTable creates a ring with the given capacity.
func NewRingTable(size int) *RingTable {
	if size <= 0 {
		panic("dataplane: ring table size must be positive")
	}
	return &RingTable{buf: make([]RTRecord, size)}
}

// Push appends a record, overwriting the oldest when full.
func (rt *RingTable) Push(r RTRecord) {
	rt.buf[rt.next] = r
	rt.next++
	if rt.next == len(rt.buf) {
		rt.next = 0
		rt.full = true
	}
}

// Snapshot returns the valid records oldest-first (nil when there are
// none): everything that arrived since the start of time.
func (rt *RingTable) Snapshot() []RTRecord { return rt.Since(math.MinInt64) }

// Since returns the records that arrived after t, oldest-first, in one
// exact-size copy; nil when none did. A sink pushes its records as they
// arrive, so Arrival never decreases in ring order, and each of the ring's
// two segments — buf[next:] (only once the ring has wrapped), then
// buf[:next] — is cut at t by a binary search.
func (rt *RingTable) Since(t netsim.Time) []RTRecord {
	var older []RTRecord
	if rt.full {
		older = rt.buf[rt.next:]
	}
	newer := rt.buf[:rt.next]
	after := func(s []RTRecord) []RTRecord {
		return s[sort.Search(len(s), func(i int) bool { return s[i].Arrival > t }):]
	}
	older, newer = after(older), after(newer)
	if len(older)+len(newer) == 0 {
		return nil
	}
	out := make([]RTRecord, len(older)+len(newer))
	copy(out[copy(out, older):], newer)
	return out
}
