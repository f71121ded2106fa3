// Package pathid implements MARS's path-aware telemetry encoding (§4.1,
// Motivation #2): every packet carries a fixed-width PathID that is
// re-hashed at each hop from {PathID, switchID, ingress port, egress port,
// control}. The control field is zero unless the control plane installed a
// Match-Action Table (MAT) entry to break a hash collision, so switch
// memory is consumed only for the (rare) colliding paths — unlike
// IntSight, which installs MAT entries for every hop of every path.
//
// The control plane precomputes the PathID of every path with the same
// hash chain (BuildTable) and keeps the PathID → path map used later by
// root cause analysis to decompress the fixed-size field back into a
// switch sequence.
package pathid

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"

	"mars/internal/hashidx"
	"mars/internal/topology"
)

// ID is a PathID value. Only the low Config.Width bits are meaningful.
type ID uint32

// HashAlg selects the per-hop hash.
type HashAlg uint8

const (
	// CRC16 is CRC-16/CCITT-FALSE (poly 0x1021), the cheaper option the
	// paper cites for Tofino hash units.
	CRC16 HashAlg = iota
	// CRC32 is IEEE CRC-32.
	CRC32
)

func (a HashAlg) String() string {
	if a == CRC16 {
		return "crc16"
	}
	return "crc32"
}

// Config fixes the hash algorithm and the carried field width.
type Config struct {
	Alg HashAlg
	// Width is the number of PathID bits carried in the packet header
	// (the paper suggests a field of e.g. 8 bits; 16 gives fewer
	// collisions at 1 extra byte).
	Width uint
}

// DefaultConfig matches the paper's headline configuration: an 8-bit
// PathID field hashed with CRC16.
func DefaultConfig() Config { return Config{Alg: CRC16, Width: 8} }

// mask returns the width mask.
func (c Config) mask() ID {
	if c.Width >= 32 {
		return ^ID(0)
	}
	return ID(1)<<c.Width - 1
}

// HeaderBytes returns the bytes the PathID field occupies on the wire.
func (c Config) HeaderBytes() int { return int(c.Width+7) / 8 }

// HostPort is the sentinel used in place of the ingress port at the source
// switch and the egress port at the sink switch, so that the PathID is a
// pure function of the switch-level path (FlowID carries no host
// information; see §4.1).
const HostPort = 0xFFFF

// crc16Table is the byte-at-a-time lookup table for CRC-16/CCITT-FALSE
// (poly 0x1021, MSB-first), equivalent to the textbook bit loop but 8×
// fewer iterations per byte.
var crc16Table = func() [256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// crc16Update folds one byte into a running CRC-16/CCITT-FALSE state.
func crc16Update(crc uint16, b byte) uint16 {
	return crc<<8 ^ crc16Table[byte(crc>>8)^b]
}

// crc16 implements CRC-16/CCITT-FALSE over buf.
func crc16(buf []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range buf {
		crc = crc16Update(crc, b)
	}
	return crc
}

// stepBytes is the length of Step's hash message: PathID (4), switch ID
// (4), ingress port (2), egress port (2), control (1).
const stepBytes = 13

// crc16Pos and crc16Zero split Step's CRC-16 over its fixed 13-byte
// message into independent lookups. A CRC without its initial value is
// linear over GF(2), so the CRC of a message is the CRC of as many zero
// bytes from the initial value (crc16Zero) XOR, for each position i, the
// zero-initialised CRC of byte b alone at i (crc16Pos[i][b]).
var crc16Pos, crc16Zero = func() (t [stepBytes][256]uint16, zero uint16) {
	for i := range t {
		for b := range t[i] {
			crc := crc16Update(0, byte(b))
			for range stepBytes - 1 - i {
				crc = crc16Update(crc, 0)
			}
			t[i][b] = crc
		}
	}
	return t, crc16(make([]byte, stepBytes))
}()

// Step computes the next PathID after one hop: the data-plane update
// hash{PathID, switchID, ingressPort, egressPort, control}. It runs per
// packet per hop; the CRC16 branch is 13 independent table lookups, one
// per message byte (crc16Pos), like a switch's one-stage hash unit, so no
// lookup waits on the one before it.
func Step(cfg Config, cur ID, sw topology.NodeID, in, out uint16, control uint8) ID {
	var h ID
	switch cfg.Alg {
	case CRC16:
		t := &crc16Pos
		crc := crc16Zero ^
			t[0][byte(cur>>24)] ^ t[1][byte(cur>>16)] ^ t[2][byte(cur>>8)] ^ t[3][byte(cur)] ^
			t[4][byte(uint32(sw)>>24)] ^ t[5][byte(uint32(sw)>>16)] ^ t[6][byte(uint32(sw)>>8)] ^ t[7][byte(uint32(sw))] ^
			t[8][byte(in>>8)] ^ t[9][byte(in)] ^
			t[10][byte(out>>8)] ^ t[11][byte(out)] ^
			t[12][control]
		h = ID(crc)
	case CRC32:
		var buf [stepBytes]byte
		buf[0] = byte(cur >> 24)
		buf[1] = byte(cur >> 16)
		buf[2] = byte(cur >> 8)
		buf[3] = byte(cur)
		buf[4] = byte(uint32(sw) >> 24)
		buf[5] = byte(uint32(sw) >> 16)
		buf[6] = byte(uint32(sw) >> 8)
		buf[7] = byte(uint32(sw))
		buf[8] = byte(in >> 8)
		buf[9] = byte(in)
		buf[10] = byte(out >> 8)
		buf[11] = byte(out)
		buf[12] = control
		h = ID(crc32.ChecksumIEEE(buf[:]))
	}
	return h & cfg.mask()
}

// appendHopPorts appends, for each switch of path, the (ingress, egress)
// port numbers used in the PathID hash chain: real inter-switch port
// indices in the middle, HostPort sentinels at the ends.
func appendHopPorts(ports [][2]uint16, topo *topology.Topology, path topology.Path) ([][2]uint16, error) {
	n := len(ports)
	ports = slices.Grow(ports, len(path))[:n+len(path)]
	if err := fillHopPorts(ports[n:], topo, path, 0); err != nil {
		return nil, err
	}
	return ports, nil
}

// fillHopPorts sets ports[from:] to path's hop ports, len(ports) ==
// len(path), given ports[from][0] when from > 0. Each link's ports are
// found once: the egress port towards the next switch, and the peer port
// behind it as that switch's ingress.
func fillHopPorts(ports [][2]uint16, topo *topology.Topology, path topology.Path, from int) error {
	if len(path) == 0 {
		return nil
	}
	if from == 0 {
		ports[0][0] = HostPort
	}
	for i := from; i < len(path)-1; i++ {
		sw := path[i]
		p, ok := topo.PortTo(sw, path[i+1])
		if !ok {
			return fmt.Errorf("pathid: %v not adjacent to %v", sw, path[i+1])
		}
		ports[i][1] = uint16(p)
		ports[i+1][0] = uint16(topo.Nodes[sw].Ports[p].PeerPort)
	}
	ports[len(path)-1][1] = HostPort
	return nil
}

// MATEntryBytes is the paper's per-entry memory estimate for MARS
// (§5.5: "a MAT occupies around 10 bytes").
const MATEntryBytes = 10

// IntSightMATEntryBytes is the per-entry cost of IntSight's path encoding
// ("each MAT entry consuming around 7 bytes").
const IntSightMATEntryBytes = 7

// matKey packs a hop's match fields, everything but the switch, into the
// key of that switch's MAT. Every field is kept whole, HostPort included.
func matKey(cur ID, in, out uint16) uint64 {
	return uint64(cur)<<32 | uint64(in)<<16 | uint64(out)
}

// Table is the control plane's PathID database: the consensus hash chain,
// the collision-breaking MAT entries, and the final-ID → path map used to
// decompress telemetry reports.
type Table struct {
	Cfg  Config
	topo *topology.Topology

	// mat[sw] is switch sw's MAT: control values by matKey. It is made,
	// one slot per node, with the first entry, so a table without entries
	// holds none; a switch may keep an empty map once an entry is withdrawn.
	mat []map[uint64]uint8
	// byFinal maps finalKey(sink switch, final ID) to the unique path's
	// offset in slab, so a decode reads one index entry and the slab.
	byFinal hashidx.Index
	// slab holds every path behind its length: the path at offset off is
	// slab[off+1 : off+1+slab[off]].
	slab []topology.NodeID
}

// finalKey packs a (sink switch, final ID) pair into byFinal's key.
func finalKey(sink topology.NodeID, id ID) uint64 {
	return uint64(uint32(sink))<<32 | uint64(id)
}

// BuildTable computes PathIDs for every path, resolving collisions between
// paths that share a sink switch by assigning control values (installing
// MAT entries) from the sink hop backwards. It errors if a sink has more
// distinct paths than the width has IDs — before inserting any — or if a
// collision cannot be broken with any of the 255 control values at any
// hop; either calls for a wider PathID.
func BuildTable(cfg Config, topo *topology.Topology, paths []topology.Path) (*Table, error) {
	perSink := make([]int, len(topo.Nodes))
	for _, p := range paths {
		perSink[p[len(p)-1]]++
	}
	ids := uint64(cfg.mask()) + 1
	for sink, n := range perSink {
		if uint64(n) <= ids {
			continue
		}
		// Duplicates do not count.
		to := make([]int32, 0, n)
		for i, p := range paths {
			if p[len(p)-1] == topology.NodeID(sink) {
				to = append(to, int32(i))
			}
		}
		if n = len(distinctOrder(paths, to, len(topo.Nodes))); uint64(n) > ids {
			return nil, fmt.Errorf("pathid: sink s%d has %d distinct paths, more than the %d IDs of a %d-bit PathID", sink, n, ids, cfg.Width)
		}
	}
	b := newSlabBuilder(cfg, topo, paths, distinctOrder(paths, nil, len(topo.Nodes)))
	return b.build()
}

// distinctOrder returns the indices of paths in BuildTable's processing
// order, shorter paths first, then lexicographic by switch ID, each
// distinct path once; of only the indices in sub, if sub is not nil. It
// orders without comparing slices, by a least-significant-first radix
// sort: one stable counting pass per position from the last (a position
// past a path's end counts as below every switch), then one by length.
// Duplicates, adjacent once sorted, are compared and dropped. Switch IDs
// are below nodes.
func distinctOrder(paths []topology.Path, sub []int32, nodes int) []int32 {
	n := len(paths)
	if sub != nil {
		n = len(sub)
	}
	buf := make([]int32, 3*n)
	idx, tmp, digit := buf[:n], buf[n:2*n], buf[2*n:]
	longest := 0
	for j := range idx {
		idx[j] = int32(j)
		if sub != nil {
			idx[j] = sub[j]
		}
		longest = max(longest, len(paths[idx[j]]))
	}
	count := make([]int32, max(nodes, longest)+2)
	for pos := longest - 1; pos >= -1; pos-- {
		for j, i := range idx {
			p := paths[i]
			switch {
			case pos < 0: // the last pass: by length
				digit[j] = int32(len(p))
			case pos < len(p):
				digit[j] = int32(p[pos]) + 1
			default:
				digit[j] = 0
			}
		}
		clear(count)
		for _, d := range digit {
			count[d+1]++
		}
		if n == 0 || count[digit[0]+1] == int32(n) {
			continue // one digit throughout: the order stands
		}
		for d := 1; d < len(count); d++ {
			count[d] += count[d-1]
		}
		for j, i := range idx {
			tmp[count[digit[j]]] = i
			count[digit[j]]++
		}
		idx, tmp = tmp, idx
	}
	return slices.CompactFunc(idx, func(a, b int32) bool { return paths[a].Equal(paths[b]) })
}

// BuildWidening is BuildTable at the narrowest field that fits the path
// set: cfg.Width first, then 12 and 16 bits — the widest PathID the
// telemetry wire format carries. The width it settled on is the returned
// table's Cfg.Width; the error is the widest attempt's.
func BuildWidening(cfg Config, topo *topology.Topology, paths []topology.Path) (t *Table, err error) {
	for i, w := range []uint{cfg.Width, 12, 16} {
		if i > 0 && w <= cfg.Width {
			continue
		}
		cfg.Width = w
		if t, err = BuildTable(cfg, topo, paths); err == nil {
			return t, nil
		}
	}
	return nil, err
}

// builder is BuildTable's working state. Nothing in it outlives the build
// but the table.
type builder struct {
	t *Table
	// walked holds the walkKey of every (switch, current ID, in, out) hop
	// the chains of the slab's paths before offset walkedTo cross: a
	// control value installed there would re-route those paths, so insert
	// never picks one. It is filled only when a collision is about to read
	// it.
	walked   hopSet
	walkedTo int32
	hops     int // the slab's hops, the most walked can hold
	// cur is the chain insert traced last and walking the one walk did.
	cur, walking trace
	try          []ID
}

// trace is the hop ports and stepwise IDs of the path a builder traced
// last: ids[h] is the PathID after hop h under the entries of that time.
type trace struct {
	path  topology.Path
	ports [][2]uint16
	ids   []ID
}

// follow makes tr path's trace and returns the first hop it computed. Hop
// h's ports and ID depend only on path[:h+2] and the entries, so the hops
// before the last switch path shares with the path traced before are kept:
// in BuildTable's lexicographic order most paths differ from the last in
// their final two hops. The caller sets tr.path to nil when it installs an
// entry, which can change any hop.
func (tr *trace) follow(t *Table, path topology.Path) (int, error) {
	same := 0
	for same < min(len(path), len(tr.path)) && path[same] == tr.path[same] {
		same++
	}
	from := max(same-1, 0)
	if cap(tr.ports) < len(path) {
		from = 0
		tr.ports, tr.ids = make([][2]uint16, len(path)), make([]ID, 0, len(path))
	}
	tr.path, tr.ports = nil, tr.ports[:len(path)]
	if err := fillHopPorts(tr.ports, t.topo, path, from); err != nil {
		return 0, err
	}
	tr.path, tr.ids = path, t.chain(tr.ids[:from], path, tr.ports)
	return from, nil
}

// newSlabBuilder copies paths[order[0]], paths[order[1]], ..., distinct
// paths in insertion order, into the table's slab, each behind its length,
// and sizes the table's index for all of them.
func newSlabBuilder(cfg Config, topo *topology.Topology, paths []topology.Path, order []int32) builder {
	hops, longest := 0, 0
	for _, i := range order {
		hops += len(paths[i])
		longest = max(longest, len(paths[i]))
	}
	slab := make([]topology.NodeID, 0, len(order)+hops)
	for _, i := range order {
		slab = append(append(slab, topology.NodeID(len(paths[i]))), paths[i]...)
	}
	return builder{
		t:    &Table{Cfg: cfg, topo: topo, byFinal: hashidx.New(len(order)), slab: slab},
		hops: hops,
		// Every insert traces; its buffers start at the longest path's
		// length and never grow.
		cur: trace{ports: make([][2]uint16, 0, longest), ids: make([]ID, 0, longest)},
	}
}

// build inserts the slab's paths in order.
func (b *builder) build() (*Table, error) {
	for off := int32(0); off < int32(len(b.t.slab)); off += 1 + int32(b.t.slab[off]) {
		if err := b.insert(off); err != nil {
			return nil, err
		}
	}
	return b.t, nil
}

// path returns the slab's path at offset off.
func (t *Table) path(off int32) topology.Path {
	start := off + 1
	end := start + int32(t.slab[off])
	return t.slab[start:end:end]
}

// chain appends to ids, which holds the IDs after path's first len(ids)
// hops, the stepwise IDs of the rest under the current entry set: ids[i]
// is the PathID after hop i.
func (t *Table) chain(ids []ID, path topology.Path, ports [][2]uint16) []ID {
	cur := ID(0)
	if len(ids) > 0 {
		cur = ids[len(ids)-1]
	}
	for i := len(ids); i < len(path); i++ {
		sw := path[i]
		cur = Step(t.Cfg, cur, sw, ports[i][0], ports[i][1], t.ControlFor(sw, cur, ports[i][0], ports[i][1]))
		ids = append(ids, cur)
	}
	return ids
}

// insert enters the slab's path at offset off, breaking a collision at its
// sink with a MAT entry.
func (b *builder) insert(off int32) error {
	t, path := b.t, b.t.path(off)
	if _, err := b.cur.follow(t, path); err != nil {
		return err
	}
	ids, ports := b.cur.ids, b.cur.ports
	sink := path[len(path)-1]
	if _, clash := t.byFinal.Get(finalKey(sink, ids[len(ids)-1])); !clash {
		t.byFinal.Put(finalKey(sink, ids[len(ids)-1]), off)
		return nil
	}
	// Collision at this sink: walk hops from the sink backwards and try
	// control values until the final ID is fresh.
	if err := b.walk(off); err != nil {
		return err
	}
	for hop := len(path) - 1; hop >= 0; hop-- {
		prev := ID(0)
		if hop > 0 {
			prev = ids[hop-1]
		}
		sw, in, out := path[hop], ports[hop][0], ports[hop][1]
		if t.ControlFor(sw, prev, in, out) != 0 {
			// This hop already disambiguates another path; changing it
			// would break that path's chain. Move one hop earlier.
			continue
		}
		if b.walked.has(walkKey(sw, prev, in, out)) {
			// An inserted path's chain crosses this hop with no entry: a
			// control value here would re-route it. Move one hop earlier.
			continue
		}
		m, k := t.switchMAT(sw), matKey(prev, in, out)
		for c := uint8(1); c != 0; c++ {
			m[k] = c
			b.try = t.chain(b.try[:0], path, ports)
			final := b.try[len(b.try)-1]
			if _, clash := t.byFinal.Get(finalKey(sink, final)); !clash {
				t.byFinal.Put(finalKey(sink, final), off)
				b.cur.path = nil
				return nil
			}
			delete(m, k)
		}
	}
	return fmt.Errorf("pathid: cannot disambiguate %v at width %d", path, t.Cfg.Width)
}

// switchMAT returns sw's MAT, making it (and mat, on the first entry) if
// sw has none yet.
func (t *Table) switchMAT(sw topology.NodeID) map[uint64]uint8 {
	if t.mat == nil {
		t.mat = make([]map[uint64]uint8, len(t.topo.Nodes))
	}
	if t.mat[sw] == nil {
		t.mat[sw] = make(map[uint64]uint8)
	}
	return t.mat[sw]
}

// walk brings the walked set up to the paths before offset upTo by walking
// the chains of the paths inserted since the last collision. It is the
// set's one fill site, and it runs only when a collision is about to read
// the set, so a collision-free build never builds it. No entry is
// installed between two collisions, so each chain walked here is the one
// its path was inserted with, and a hop a path shares with the one walked
// before it is already in the set.
func (b *builder) walk(upTo int32) error {
	if b.walked.slots == nil {
		b.walked = newHopSet(b.hops)
	}
	b.walking.path = nil
	for ; b.walkedTo < upTo; b.walkedTo += 1 + int32(b.t.slab[b.walkedTo]) {
		p := b.t.path(b.walkedTo)
		from, err := b.walking.follow(b.t, p)
		if err != nil {
			return err
		}
		for h := from; h < len(p); h++ {
			prev := ID(0)
			if h > 0 {
				prev = b.walking.ids[h-1]
			}
			b.walked.add(walkKey(p[h], prev, b.walking.ports[h][0], b.walking.ports[h][1]))
		}
	}
	return nil
}

// hopSet is the walked set: walkKeys in a power-of-two array, linearly
// probed from a seeded hash. It is sized once for n keys and at most
// two-thirds full then, so it never grows.
type hopSet struct {
	h     hashidx.Hasher
	slots []uint64 // 0 marks an empty slot
	zero  bool     // whether key 0 is in
}

func newHopSet(n int) hopSet {
	return hopSet{h: hashidx.NewHasher(), slots: make([]uint64, 1<<bits.Len(uint(n+n/2)))}
}

// slot returns k's slot, or the empty one that ends its probe run.
func (s *hopSet) slot(k uint64) *uint64 {
	mask := uint64(len(s.slots) - 1)
	for i := s.h.Hash(k) & mask; ; i = (i + 1) & mask {
		if s.slots[i] == k || s.slots[i] == 0 {
			return &s.slots[i]
		}
	}
}

func (s *hopSet) add(k uint64) {
	if k == 0 {
		s.zero = true
		return
	}
	*s.slot(k) = k
}

func (s *hopSet) has(k uint64) bool {
	if k == 0 {
		return s.zero
	}
	return *s.slot(k) == k
}

// walkKey packs a hop into one word. It is exact for switch IDs below
// 65,536 and ports below 255 (HostPort packs as 255). Past that two hops
// may share a key, which can only make insert skip a hop it could have
// used, never re-route a path.
func walkKey(sw topology.NodeID, cur ID, in, out uint16) uint64 {
	return uint64(cur)<<32 | uint64(uint16(sw))<<16 | uint64(uint8(in))<<8 | uint64(uint8(out))
}

// FinalID returns the PathID a packet following path arrives with at the
// sink, under the table's consensus chain, and whether path is in the
// table: whether that ID decodes back to path. The walked set keeps every
// entry off the chains of the paths inserted before it, so the chain walked
// here is the one path was inserted with. Paths of up to maxStackHops
// switches cost no allocation.
func (t *Table) FinalID(path topology.Path) (ID, bool) {
	var ports [maxStackHops][2]uint16
	var ids [maxStackHops]ID
	pp, err := appendHopPorts(ports[:0], t.topo, path)
	if err != nil || len(path) == 0 {
		return 0, false
	}
	id := t.chain(ids[:0], path, pp)[len(path)-1]
	if p, ok := t.Lookup(path[len(path)-1], id); !ok || !p.Equal(path) {
		return 0, false
	}
	return id, true
}

// maxStackHops bounds the paths FinalID walks in stack buffers; a fat
// tree's longest is five switches.
const maxStackHops = 8

// Lookup decompresses a (sink switch, PathID) pair back to the full path.
func (t *Table) Lookup(sink topology.NodeID, id ID) (topology.Path, bool) {
	off, ok := t.byFinal.Get(finalKey(sink, id))
	if !ok {
		return nil, false
	}
	start := off + 1
	end := start + int32(t.slab[off])
	return t.slab[start:end:end], true
}

// ControlFor is the data-plane MAT lookup at one hop: it returns the
// control value to hash (0 if no entry matches). A switch with no entries
// — most switches, and every switch of most configurations — answers
// without hashing; the rest hash one uint64.
func (t *Table) ControlFor(sw topology.NodeID, cur ID, in, out uint16) uint8 {
	if uint(sw) < uint(len(t.mat)) {
		if m := t.mat[sw]; len(m) > 0 {
			return m[matKey(cur, in, out)]
		}
	}
	return 0
}

// NumPaths returns the number of distinct paths in the table.
func (t *Table) NumPaths() int { return t.byFinal.Len() }

// MATEntryCount returns the number of collision-breaking entries installed
// across all switches.
func (t *Table) MATEntryCount() int {
	n := 0
	for _, m := range t.mat {
		n += len(m)
	}
	return n
}

// MemoryBytes returns the total switch memory spent on PathID MAT entries
// under the paper's 10 B/entry estimate.
func (t *Table) MemoryBytes() int { return t.MATEntryCount() * MATEntryBytes }

// IntSightMATEntries returns the number of MAT entries IntSight's encoding
// needs for the same path set: one per hop of every path (§5.5:
// "IntSight needs to assign MAT entries for all switches on a path").
func IntSightMATEntries(paths []topology.Path) int {
	nodes := 0
	for _, p := range paths {
		for _, sw := range p {
			nodes = max(nodes, int(sw)+1)
		}
	}
	n := 0
	for _, i := range distinctOrder(paths, nil, nodes) {
		n += len(paths[i])
	}
	return n
}
