package pathid

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mars/internal/topology"
)

func k4(t *testing.T) *topology.FatTree {
	t.Helper()
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	if got := crc16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("crc16 = %#x, want 0x29b1", got)
	}
}

// stepMessage lays out Step's hash message byte by byte: PathID, switch
// ID, ingress port, egress port (each big-endian), control.
func stepMessage(cur ID, sw topology.NodeID, in, out uint16, control uint8) []byte {
	return []byte{
		byte(cur >> 24), byte(cur >> 16), byte(cur >> 8), byte(cur),
		byte(uint32(sw) >> 24), byte(uint32(sw) >> 16), byte(uint32(sw) >> 8), byte(uint32(sw)),
		byte(in >> 8), byte(in), byte(out >> 8), byte(out), control,
	}
}

// refStep is Step as the textbook fold: the hash over the message built
// in a buffer, one byte at a time, then masked to the width.
func refStep(cfg Config, cur ID, sw topology.NodeID, in, out uint16, control uint8) ID {
	msg := stepMessage(cur, sw, in, out, control)
	if cfg.Alg == CRC16 {
		return ID(crc16(msg)) & cfg.mask()
	}
	return ID(crc32.ChecksumIEEE(msg)) & cfg.mask()
}

// TestStepMatchesByteFold: the positional CRC-16 lookups are the CRC of
// the 13-byte message, for random IDs and switches, both HostPort
// sentinels, every control value and every width.
func TestStepMatchesByteFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ports := []uint16{0, 1, 7, 255, 256, HostPort - 1, HostPort}
	for width := uint(1); width <= 32; width++ {
		for _, alg := range []HashAlg{CRC16, CRC32} {
			cfg := Config{Alg: alg, Width: width}
			for c := 0; c < 256; c++ {
				cur, sw := ID(rng.Uint32()), topology.NodeID(rng.Int31())
				in, out := ports[rng.Intn(len(ports))], ports[rng.Intn(len(ports))]
				if got, want := Step(cfg, cur, sw, in, out, uint8(c)), refStep(cfg, cur, sw, in, out, uint8(c)); got != want {
					t.Fatalf("%v/%d Step(%#x, %d, %d, %d, %d) = %#x, byte fold %#x", alg, width, cur, sw, in, out, c, got, want)
				}
			}
		}
	}
}

// FuzzStep: Step equals the byte-at-a-time fold for any input.
func FuzzStep(f *testing.F) {
	f.Add(uint32(0), int32(0), uint16(HostPort), uint16(1), uint8(0), uint8(8))
	f.Add(uint32(0xDEADBEEF), int32(1343), uint16(3), uint16(HostPort), uint8(255), uint8(16))
	f.Fuzz(func(t *testing.T, cur uint32, sw int32, in, out uint16, control, width uint8) {
		for _, alg := range []HashAlg{CRC16, CRC32} {
			cfg := Config{Alg: alg, Width: uint(width%32) + 1}
			if got, want := Step(cfg, ID(cur), topology.NodeID(sw), in, out, control), refStep(cfg, ID(cur), topology.NodeID(sw), in, out, control); got != want {
				t.Fatalf("%v/%d: Step = %#x, byte fold %#x", alg, cfg.Width, got, want)
			}
		}
	})
}

func TestStepDeterministicAndWidthMasked(t *testing.T) {
	cfg := Config{Alg: CRC16, Width: 8}
	a := Step(cfg, 0, 3, 1, 2, 0)
	b := Step(cfg, 0, 3, 1, 2, 0)
	if a != b {
		t.Fatal("Step not deterministic")
	}
	if a > 0xFF {
		t.Errorf("Step exceeded 8-bit mask: %#x", a)
	}
	if c := Step(cfg, 0, 3, 1, 2, 1); c == a {
		t.Error("control value did not change hash")
	}
	if d := Step(cfg, 0, 4, 1, 2, 0); d == a {
		t.Error("switch ID did not change hash")
	}
}

func TestStepCRC32Differs(t *testing.T) {
	c16 := Config{Alg: CRC16, Width: 16}
	c32 := Config{Alg: CRC32, Width: 16}
	if Step(c16, 5, 1, 2, 3, 0) == Step(c32, 5, 1, 2, 3, 0) {
		t.Skip("coincidental equality; widen check")
	}
}

func TestHopPorts(t *testing.T) {
	ft := k4(t)
	paths := ft.AllShortestPaths(ft.EdgeIDs[0], ft.EdgeIDs[1])
	p := paths[0]
	ports, err := HopPorts(ft.Topology, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 3 {
		t.Fatalf("ports len = %d", len(ports))
	}
	if ports[0][0] != HostPort {
		t.Errorf("source ingress = %d, want HostPort", ports[0][0])
	}
	if ports[2][1] != HostPort {
		t.Errorf("sink egress = %d, want HostPort", ports[2][1])
	}
	// Middle hop uses real ports on both sides.
	if ports[1][0] == HostPort || ports[1][1] == HostPort {
		t.Errorf("transit ports = %v", ports[1])
	}
}

func TestHopPortsRejectsNonAdjacent(t *testing.T) {
	ft := k4(t)
	bad := topology.Path{ft.EdgeIDs[0], ft.EdgeIDs[7]}
	if _, err := HopPorts(ft.Topology, bad); err == nil {
		t.Error("expected error for non-adjacent path")
	}
}

func TestBuildTableAllPathsResolvable8Bit(t *testing.T) {
	ft := k4(t)
	paths := ft.AllEdgePairPaths()
	tbl, err := BuildTable(Config{Alg: CRC16, Width: 8}, ft.Topology, paths)
	if err != nil {
		t.Fatalf("BuildTable: %v", err)
	}
	if tbl.NumPaths() != len(paths) {
		t.Errorf("table paths = %d, want %d", tbl.NumPaths(), len(paths))
	}
	// Every path must round-trip through (sink, finalID).
	for _, p := range paths {
		id, ok := tbl.FinalID(p)
		if !ok {
			t.Fatalf("no final ID for %v", p)
		}
		got, ok := tbl.Lookup(p[len(p)-1], id)
		if !ok || !got.Equal(p) {
			t.Fatalf("Lookup(%v) = %v, %v", p, got, ok)
		}
	}
}

// TestBuildWideningSettlesOnNarrowestWidth: k=4 fits the configured 8
// bits, k=8's all-pairs set does not and settles on 12, and a width the
// caller already set past 12 is never narrowed.
func TestBuildWideningSettlesOnNarrowestWidth(t *testing.T) {
	k8, err := topology.NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ft          *topology.FatTree
		start, want uint
	}{{k4(t), 8, 8}, {k8, 8, 12}, {k8, 16, 16}} {
		paths := tc.ft.AllEdgePairPaths()
		tab, err := BuildWidening(Config{Alg: CRC16, Width: tc.start}, tc.ft.Topology, paths)
		if err != nil {
			t.Fatalf("k=%d from %d bits: %v", tc.ft.K, tc.start, err)
		}
		if tab.Cfg.Width != tc.want {
			t.Errorf("k=%d from %d bits settled on %d, want %d", tc.ft.K, tc.start, tab.Cfg.Width, tc.want)
		}
	}
	// k=8 all-pairs has 460 paths per sink, more than 8 bits' 256 IDs:
	// the build fails by pigeonhole, before any insert, naming the sink.
	_, err = BuildTable(DefaultConfig(), k8.Topology, k8.AllEdgePairPaths())
	if want := fmt.Sprintf("sink s%d has 460 distinct paths", k8.EdgeIDs[0]); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("k=8 all-pairs at 8 bits: err = %v, want the pigeonhole error %q", err, want)
	}
}

func TestBuildTableCollisionsNeedEntries(t *testing.T) {
	ft := k4(t)
	paths := ft.AllEdgePairPaths() // 208 ordered paths in K=4
	tbl8, err := BuildTable(Config{Alg: CRC16, Width: 8}, ft.Topology, paths)
	if err != nil {
		t.Fatal(err)
	}
	tbl16, err := BuildTable(Config{Alg: CRC16, Width: 16}, ft.Topology, paths)
	if err != nil {
		t.Fatal(err)
	}
	if tbl8.MATEntryCount() == 0 {
		t.Error("8-bit PathID over 208 paths should need some MAT entries")
	}
	if tbl16.MATEntryCount() >= tbl8.MATEntryCount() {
		t.Errorf("16-bit entries (%d) should be < 8-bit entries (%d)",
			tbl16.MATEntryCount(), tbl8.MATEntryCount())
	}
	// The paper's headline: MARS uses far fewer entries than IntSight (512
	// for K=4), saving memory even at 10 B vs 7 B per entry.
	// Ordered-pair accounting: 16 same-pod paths x 3 hops + 192 cross-pod
	// paths x 5 hops = 1008. (The paper counts unordered 112 paths -> 512
	// entries; the ratio is what matters.)
	is := IntSightMATEntries(paths)
	if is != 16*3+192*5 {
		t.Errorf("IntSight entries = %d, want 1008", is)
	}
	if tbl8.MemoryBytes() >= is*IntSightMATEntryBytes {
		t.Errorf("MARS memory %d B not below IntSight %d B",
			tbl8.MemoryBytes(), is*IntSightMATEntryBytes)
	}
	t.Logf("8-bit: %d entries (%d B); 16-bit: %d entries; IntSight: %d entries (%d B)",
		tbl8.MATEntryCount(), tbl8.MemoryBytes(), tbl16.MATEntryCount(),
		is, is*IntSightMATEntryBytes)
}

func TestDataPlaneChainMatchesControlPlane(t *testing.T) {
	// Simulate the data plane: walk each path applying Step with the
	// table's ControlFor at each hop; the arrival ID must equal FinalID.
	ft := k4(t)
	paths := ft.AllEdgePairPaths()
	cfg := Config{Alg: CRC16, Width: 8}
	tbl, err := BuildTable(cfg, ft.Topology, paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		ports, err := HopPorts(ft.Topology, p)
		if err != nil {
			t.Fatal(err)
		}
		cur := ID(0)
		for i, sw := range p {
			ctrl := tbl.ControlFor(sw, cur, ports[i][0], ports[i][1])
			cur = Step(cfg, cur, sw, ports[i][0], ports[i][1], ctrl)
		}
		want, _ := tbl.FinalID(p)
		if cur != want {
			t.Fatalf("data-plane chain for %v = %#x, want %#x", p, cur, want)
		}
	}
}

func TestLookupUnknownID(t *testing.T) {
	ft := k4(t)
	tbl, err := BuildTable(DefaultConfig(), ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		t.Fatal(err)
	}
	// An ID nobody produced at some sink: probe all 256 and ensure lookup
	// only succeeds for registered ones.
	sink := ft.EdgeIDs[0]
	found := 0
	for id := ID(0); id < 256; id++ {
		if _, ok := tbl.Lookup(sink, id); ok {
			found++
		}
	}
	// 7 other edge switches route to this sink: 2 same-pod neighbors... the
	// count of paths ending at sink = 2 (same-pod, x1 peer) + ... just
	// assert it is positive and below 256.
	if found == 0 || found >= 256 {
		t.Errorf("paths at sink = %d", found)
	}
}

func TestDuplicatePathsIgnored(t *testing.T) {
	ft := k4(t)
	paths := ft.AllShortestPaths(ft.EdgeIDs[0], ft.EdgeIDs[2])
	dup := append(append([]topology.Path{}, paths...), paths...)
	tbl, err := BuildTable(DefaultConfig(), ft.Topology, dup)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumPaths() != len(paths) {
		t.Errorf("NumPaths = %d, want %d", tbl.NumPaths(), len(paths))
	}
	// Every path given twice builds the same table as every path given
	// once, MAT entries included: duplicates neither count towards a
	// sink's IDs nor change the insertion order. Given ten times, each
	// sink's 26 paths arrive 260 times, past 8 bits' 256 IDs, and still
	// build.
	all := ft.AllEdgePairPaths()
	once, err := BuildTable(DefaultConfig(), ft.Topology, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, times := range []int{2, 10} {
		var rep []topology.Path
		for i := 0; i < times; i++ {
			rep = append(rep, all...)
		}
		again, err := BuildTable(DefaultConfig(), ft.Topology, rep)
		if err != nil {
			t.Fatalf("all-pairs given %d times: %v", times, err)
		}
		if once.MATEntryCount() == 0 || !reflect.DeepEqual(matEntries(once), matEntries(again)) || tableDigest(once, all) != tableDigest(again, all) {
			t.Errorf("all-pairs given %d times built another table: %d vs %d MAT entries", times, again.MATEntryCount(), once.MATEntryCount())
		}
	}
}

func TestHeaderBytes(t *testing.T) {
	cases := []struct {
		width uint
		want  int
	}{{8, 1}, {12, 2}, {16, 2}, {32, 4}}
	for _, c := range cases {
		if got := (Config{Width: c.width}).HeaderBytes(); got != c.want {
			t.Errorf("HeaderBytes(%d) = %d, want %d", c.width, got, c.want)
		}
	}
}

// matEntries lists a table's MAT entries as a set.
func matEntries(tbl *Table) map[MATEntry]bool {
	set := map[MATEntry]bool{}
	for sw, m := range tbl.mat {
		//mars:mapiter-ok the entries go into a set
		for k, c := range m {
			set[MATEntry{Switch: topology.NodeID(sw), Cur: ID(k >> 32), In: uint16(k >> 16), Out: uint16(k), Control: c}] = true
		}
	}
	return set
}

// TestControlForMatchesEntries: every installed entry comes back from
// ControlFor, and a key one field off does not: the current ID ±1, the
// ports swapped, or HostPort in place of either port.
func TestControlForMatchesEntries(t *testing.T) {
	k8, err := topology.NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ft    *topology.FatTree
		width uint
		want  int
	}{{k4(t), 8, 16}, {k8, 12, 1191}} {
		tbl, err := BuildTable(Config{Alg: CRC16, Width: tc.width}, tc.ft.Topology, tc.ft.AllEdgePairPaths())
		if err != nil {
			t.Fatal(err)
		}
		entries := matEntries(tbl)
		if len(entries) != tc.want || tbl.MATEntryCount() != tc.want {
			t.Fatalf("k=%d at %d bits: %d entries listed, %d counted, want %d", tc.ft.K, tc.width, len(entries), tbl.MATEntryCount(), tc.want)
		}
		// control maps each installed hop, Control left zero, to its value;
		// any other hop must read 0.
		control := map[MATEntry]uint8{}
		//mars:mapiter-ok the entries go into a map
		for e := range entries {
			c := e.Control
			e.Control = 0
			control[e] = c
		}
		//mars:mapiter-ok each hop is checked on its own
		for e := range control {
			for _, hop := range []MATEntry{
				e,
				{Switch: e.Switch, Cur: e.Cur + 1, In: e.In, Out: e.Out},
				{Switch: e.Switch, Cur: e.Cur - 1, In: e.In, Out: e.Out},
				{Switch: e.Switch, Cur: e.Cur, In: e.Out, Out: e.In},
				{Switch: e.Switch, Cur: e.Cur, In: HostPort, Out: e.Out},
				{Switch: e.Switch, Cur: e.Cur, In: e.In, Out: HostPort},
			} {
				if got, want := tbl.ControlFor(hop.Switch, hop.Cur, hop.In, hop.Out), control[hop]; got != want {
					t.Fatalf("k=%d: ControlFor(%+v) = %d, want %d (near %+v)", tc.ft.K, hop, got, want, e)
				}
			}
		}
	}
}

func TestEntriesPerSwitchSumsToTotal(t *testing.T) {
	ft := k4(t)
	tbl, err := BuildTable(Config{Alg: CRC16, Width: 8}, ft.Topology, ft.AllEdgePairPaths())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range tbl.EntriesPerSwitch() {
		sum += n
	}
	if sum != tbl.MATEntryCount() {
		t.Errorf("per-switch sum %d != total %d", sum, tbl.MATEntryCount())
	}
}

// Property: distinct paths sharing a sink always resolve to distinct final
// IDs (the table's core guarantee), across widths and algorithms.
func TestPropertyUniqueFinalIDsPerSink(t *testing.T) {
	ft := k4(t)
	paths := ft.AllEdgePairPaths()
	for _, cfg := range []Config{
		{Alg: CRC16, Width: 8},
		{Alg: CRC16, Width: 16},
		{Alg: CRC32, Width: 8},
		{Alg: CRC32, Width: 16},
	} {
		tbl, err := BuildTable(cfg, ft.Topology, paths)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		type k struct {
			sink topology.NodeID
			id   ID
		}
		seen := map[k]string{}
		for _, p := range paths {
			id, ok := tbl.FinalID(p)
			if !ok {
				t.Fatalf("%v: missing id for %v", cfg, p)
			}
			key := k{p[len(p)-1], id}
			if prev, dup := seen[key]; dup && prev != p.String() {
				t.Fatalf("%v: sink collision between %s and %v", cfg, prev, p)
			}
			seen[key] = p.String()
		}
	}
}

// Property: Step output stays within the width mask for random inputs.
func TestPropertyStepMasked(t *testing.T) {
	f := func(cur uint32, sw int32, in, out uint16, ctrl uint8, width uint8) bool {
		w := uint(width%31) + 1
		cfg := Config{Alg: CRC16, Width: w}
		id := Step(cfg, ID(cur), topology.NodeID(sw), in, out, ctrl)
		return id <= cfg.mask()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// pathKey is p's key: each switch ID as four big-endian bytes.
func pathKey(p topology.Path) string {
	b := make([]byte, 0, len(p)*4)
	for _, n := range p {
		b = append(b, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
	return string(b)
}

// newBuilder is a builder over paths, distinct, in insertion order.
func newBuilder(cfg Config, topo *topology.Topology, paths []topology.Path) *builder {
	order := make([]int32, len(paths))
	for i := range order {
		order[i] = int32(i)
	}
	b := newSlabBuilder(cfg, topo, paths, order)
	return &b
}

// TestDistinctOrderMatchesComparisonSort: distinctOrder equals a
// comparison sort by (length, then switch IDs) with duplicates dropped, on
// random path sets of every length from 0 to 6 with many duplicates, in
// random order, whole and as subsets.
func TestDistinctOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nodes := 2 + rng.Intn(300)
		paths := make([]topology.Path, rng.Intn(400))
		for i := range paths {
			paths[i] = make(topology.Path, rng.Intn(7))
			for j := range paths[i] {
				paths[i][j] = topology.NodeID(rng.Intn(min(nodes, 3+trial)))
			}
		}
		var sub []int32
		if trial%2 == 1 {
			for i := range paths {
				if rng.Intn(3) > 0 {
					sub = append(sub, int32(i))
				}
			}
		}
		want := slices.Clone(sub)
		if sub == nil {
			want = make([]int32, len(paths))
			for i := range want {
				want[i] = int32(i)
			}
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			p, q := paths[a], paths[b]
			return cmp.Or(cmp.Compare(len(p), len(q)), slices.Compare(p, q))
		})
		want = slices.CompactFunc(want, func(a, b int32) bool { return paths[a].Equal(paths[b]) })
		got := distinctOrder(paths, slices.Clone(sub), nodes)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d distinct paths, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if !paths[got[i]].Equal(paths[want[i]]) {
				t.Fatalf("trial %d: position %d is %v, want %v", trial, i, paths[got[i]], paths[want[i]])
			}
		}
	}
}

// TestBuildOrderMatchesStringKeyOrder pins BuildTable's processing order —
// and with it every PathID and MAT entry, which are a function of that
// order — to the one the original comparator produced: length, then the
// big-endian pathKey strings.
func TestBuildOrderMatchesStringKeyOrder(t *testing.T) {
	for _, tc := range []struct {
		k   int
		cfg Config
	}{
		{4, Config{Alg: CRC16, Width: 8}}, // narrow: collisions install entries
		{8, Config{Alg: CRC16, Width: 16}},
	} {
		ft, err := topology.NewFatTree(tc.k)
		if err != nil {
			t.Fatal(err)
		}
		paths := ft.AllEdgePairPaths()
		got, err := BuildTable(tc.cfg, ft.Topology, paths)
		if err != nil {
			t.Fatalf("k=%d BuildTable: %v", tc.k, err)
		}
		sorted := append([]topology.Path(nil), paths...)
		sort.Slice(sorted, func(i, j int) bool {
			if len(sorted[i]) != len(sorted[j]) {
				return len(sorted[i]) < len(sorted[j])
			}
			return pathKey(sorted[i]) < pathKey(sorted[j])
		})
		// The reference goes through the same insert and post-insert
		// steps as BuildTable, in the string-key order.
		want, err := newBuilder(tc.cfg, ft.Topology, sorted).build()
		if err != nil {
			t.Fatalf("k=%d reference insert: %v", tc.k, err)
		}
		if tc.k == 4 && want.MATEntryCount() == 0 {
			t.Fatal("k=4 at width 8 installed no MAT entries; the case compares nothing")
		}
		if !reflect.DeepEqual(matEntries(got), matEntries(want)) {
			t.Errorf("k=%d: MAT entries differ from the string-key build (%d vs %d)", tc.k, got.MATEntryCount(), want.MATEntryCount())
		}
		for _, p := range paths {
			g, _ := got.FinalID(p)
			w, ok := want.FinalID(p)
			if !ok || g != w {
				t.Fatalf("k=%d: FinalID(%v) = %d, string-key build has %d (ok=%v)", tc.k, p, g, w, ok)
			}
		}
	}
}

// decodesToItself walks every path through the data plane — Step with the
// table's ControlFor at each hop — and returns the paths whose arrival ID
// decodes to another path (or to none).
func decodesToItself(t *testing.T, tbl *Table, topo *topology.Topology, paths []topology.Path) (stale []topology.Path) {
	t.Helper()
	for _, p := range paths {
		ports, err := HopPorts(topo, p)
		if err != nil {
			t.Fatal(err)
		}
		cur := ID(0)
		for i, sw := range p {
			cur = Step(tbl.Cfg, cur, sw, ports[i][0], ports[i][1], tbl.ControlFor(sw, cur, ports[i][0], ports[i][1]))
		}
		if got, ok := tbl.Lookup(p[len(p)-1], cur); !ok || !got.Equal(p) {
			stale = append(stale, p)
		}
	}
	return stale
}

// Property: every path's data-plane chain, under the final MAT entries,
// decodes back to that path. A control value installed to break a later
// collision must never re-route a path inserted before it. Every
// configuration must build except k=8 at 8 bits, which is too narrow for
// its 14,720 paths: a build that stops fitting fails the test rather than
// leaving it nothing to check.
func TestPropertyEveryChainDecodesToItself(t *testing.T) {
	for _, k := range []int{4, 8} {
		ft, err := topology.NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		paths := ft.AllEdgePairPaths()
		for _, alg := range []HashAlg{CRC16, CRC32} {
			for _, width := range []uint{8, 12, 16} {
				cfg := Config{Alg: alg, Width: width}
				tbl, err := BuildTable(cfg, ft.Topology, paths)
				if err != nil {
					if k == 8 && width == 8 {
						continue
					}
					t.Fatalf("k=%d %v/%d: %v", k, alg, width, err)
				}
				if stale := decodesToItself(t, tbl, ft.Topology, paths); len(stale) > 0 {
					t.Errorf("k=%d %v/%d: %d of %d paths decode to another path (first %v; %d MAT entries)", k, alg, width, len(stale), len(paths), stale[0], tbl.MATEntryCount())
				}
			}
		}
	}
}

// tableDigest hashes what a table decides for a path set: its MAT entry
// count, the entries per switch, and every path's final ID.
func tableDigest(tbl *Table, paths []topology.Path) string {
	h := sha256.New()
	fmt.Fprintf(h, "entries %d\n", tbl.MATEntryCount())
	per := tbl.EntriesPerSwitch()
	sws := make([]topology.NodeID, 0, len(per))
	//mars:mapiter-ok the collected keys are sorted immediately below
	for sw := range per {
		sws = append(sws, sw)
	}
	slices.Sort(sws)
	for _, sw := range sws {
		fmt.Fprintf(h, "switch %d %d\n", sw, per[sw])
	}
	for _, p := range paths {
		id, ok := tbl.FinalID(p)
		fmt.Fprintf(h, "%v %d %v\n", p, id, ok)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedTables pins the tables themselves, not only the experiment
// digests built on them: k=4 and k=8 all-pairs at every algorithm and
// width that builds. The digests were read before the build was made
// faster; a change to the build must leave every table as it was.
func TestPinnedTables(t *testing.T) {
	for _, tc := range []struct {
		k    int
		cfg  Config
		want string // "" where the width is too narrow to build
	}{
		{4, Config{CRC16, 8}, "c137d31da31ec2d6731fa3cfb4f31073765ba6026005291f3e1cfc9b0fec7b15"}, // 16 entries
		{4, Config{CRC16, 12}, "c6c44c12f677d89071dc69cc05ecf1f9f68f8bad1ca50fa6b8a6bb0d96bb31c8"},
		{4, Config{CRC16, 16}, "bf977b8d95317f6044059e4a0e55ca2294e1eb5424f405870baed731e572933e"},
		{4, Config{CRC32, 8}, "4d24ad8ea1434253c4860d84f8bbd851312d18acd5a8bd08722f2d0868ea7810"}, // 12 entries
		{4, Config{CRC32, 12}, "a67e50bcca12ea2f95e1b4c4679cda0d3736e62be84828af19a15830528bac48"},
		{4, Config{CRC32, 16}, "9093fb936ed0f8919d7928a69e3bd4cb90e3e83c91fbae8e486ca6528eacb39f"},
		{8, Config{CRC16, 8}, ""},
		{8, Config{CRC16, 12}, "e2406c354cf746863cce453bac4328606cca85a60f5f0de1cc5c4eefef97d075"}, // 1,191 entries
		{8, Config{CRC16, 16}, "608313cd3e53ee0d8760133c2488cc0187d2d349907629cccf789ea38b72d327"},
		{8, Config{CRC32, 8}, ""},
		{8, Config{CRC32, 12}, "f0aaf34a4035c7dd808e735f0705a6042d143f2369112757c9bb09e9876cdd07"}, // 36 entries
		{8, Config{CRC32, 16}, "eab540b4d935e04ea386babd337db9f883a76e2dac913768263ea91d478724f8"}, // 3 entries
	} {
		ft, err := topology.NewFatTree(tc.k)
		if err != nil {
			t.Fatal(err)
		}
		paths := ft.AllEdgePairPaths()
		tbl, err := BuildTable(tc.cfg, ft.Topology, paths)
		if (err == nil) != (tc.want != "") {
			t.Fatalf("k=%d %v/%d: err = %v", tc.k, tc.cfg.Alg, tc.cfg.Width, err)
		}
		if err != nil {
			continue
		}
		if got := tableDigest(tbl, paths); got != tc.want {
			t.Errorf("k=%d %v/%d: table digest %s, pinned %s", tc.k, tc.cfg.Alg, tc.cfg.Width, got, tc.want)
		}
	}
}

// meshPaths is the path set of a cross-pod mesh of two flows per host,
// flow i from host i (mod hosts) to a host 1..K-1 pods away: every
// shortest path of each distinct (source edge, sink edge) pair, pairs in
// ascending order. At k=16 that is 1,536 pairs and 98,304 paths.
func meshPaths(ft *topology.FatTree) []topology.Path {
	hosts := ft.HostIDs
	perPod := len(hosts) / ft.K
	seen := map[[2]topology.NodeID]bool{}
	var pairs [][2]topology.NodeID
	for i := 0; i < 2*len(hosts); i++ {
		se, _ := ft.EdgeSwitchOf(hosts[i%len(hosts)])
		de, _ := ft.EdgeSwitchOf(hosts[(i%len(hosts)+perPod*(1+i%(ft.K-1)))%len(hosts)])
		if p := [2]topology.NodeID{se, de}; se != de && !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	slices.SortFunc(pairs, func(a, b [2]topology.NodeID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	var paths []topology.Path
	for _, p := range pairs {
		paths = append(paths, ft.AllShortestPaths(p[0], p[1])...)
	}
	return paths
}

// BenchmarkBuildTable times the control plane's table build on four
// path sets: k=8 all-pairs (14,720 paths) at 16 bits, which is
// collision-free; the same set at 8 bits, which fails by pigeonhole (460
// paths per sink against 256 IDs); k=4 all-pairs at 8 bits, which
// installs 16 MAT entries; and a k=16 cross-pod mesh's 98,304 paths at 16
// bits (meshPaths), the largest table a set-up builds without entries.
func BenchmarkBuildTable(b *testing.B) {
	ft4, err := topology.NewFatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	ft8, err := topology.NewFatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	ft16, err := topology.NewFatTree(16)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		ft    *topology.FatTree
		paths []topology.Path
		width uint
		ok    bool
	}{
		{"K8All16", ft8, ft8.AllEdgePairPaths(), 16, true},
		{"K8All8", ft8, ft8.AllEdgePairPaths(), 8, false},
		{"K4All8", ft4, ft4.AllEdgePairPaths(), 8, true},
		{"K16Mesh16", ft16, meshPaths(ft16), 16, true},
	} {
		paths := bc.paths
		cfg := Config{Alg: CRC16, Width: bc.width}
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildTable(cfg, bc.ft.Topology, paths); (err == nil) != bc.ok {
					b.Fatalf("BuildTable: err = %v, want success %v", err, bc.ok)
				}
			}
		})
	}
}

// TestFinalIDRejectsUnknownPaths: FinalID answers only for the table's
// paths. A 5-bit table built from every other k=4 path knows none of the
// rest, though most of their chains arrive with an ID that decodes to
// another path; nor a path that is not a walk of the topology, nor the
// empty path.
func TestFinalIDRejectsUnknownPaths(t *testing.T) {
	ft := k4(t)
	var in, out []topology.Path
	for i, p := range ft.AllEdgePairPaths() {
		if i%2 == 0 {
			in = append(in, p)
		} else {
			out = append(out, p)
		}
	}
	tbl, err := BuildTable(Config{Alg: CRC16, Width: 5}, ft.Topology, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range in {
		if _, ok := tbl.FinalID(p); !ok {
			t.Fatalf("FinalID(%v) misses an inserted path", p)
		}
	}
	if aliased := len(out) - len(decodesToItself(t, tbl, ft.Topology, out)); aliased != 0 {
		t.Fatalf("%d paths outside the table decode to themselves", aliased)
	}
	decodes := 0
	for _, p := range out {
		ports, _ := HopPorts(ft.Topology, p)
		cur := ID(0)
		for i, sw := range p {
			cur = Step(tbl.Cfg, cur, sw, ports[i][0], ports[i][1], tbl.ControlFor(sw, cur, ports[i][0], ports[i][1]))
		}
		if _, ok := tbl.Lookup(p[len(p)-1], cur); ok {
			decodes++
		}
	}
	if decodes == 0 {
		t.Fatal("no outside path's chain decodes to another path; the case checks nothing")
	}
	out = append(out, topology.Path{ft.EdgeIDs[0], ft.EdgeIDs[7]}, nil)
	for _, p := range out {
		if id, ok := tbl.FinalID(p); ok {
			t.Fatalf("FinalID(%v) = %d for a path the table does not hold", p, id)
		}
	}
}

// k8Decodes returns k=8 all-pairs at 16 bits: the paths, their table, and
// two sets of (sink, ID) queries, every path's final ID and as many that
// decode to nothing.
func k8Decodes(tb testing.TB) (paths []topology.Path, tbl *Table, hits, misses []finalQuery) {
	tb.Helper()
	ft, err := topology.NewFatTree(8)
	if err != nil {
		tb.Fatal(err)
	}
	paths = ft.AllEdgePairPaths()
	if tbl, err = BuildTable(Config{Alg: CRC16, Width: 16}, ft.Topology, paths); err != nil {
		tb.Fatal(err)
	}
	for _, p := range paths {
		id, ok := tbl.FinalID(p)
		if !ok {
			tb.Fatalf("no final ID for %v", p)
		}
		sink := p[len(p)-1]
		hits = append(hits, finalQuery{sink, id})
		miss := id ^ 0x8000
		for _, taken := tbl.Lookup(sink, miss); taken; _, taken = tbl.Lookup(sink, miss) {
			miss = (miss + 1) & 0xFFFF
		}
		misses = append(misses, finalQuery{sink, miss})
	}
	return paths, tbl, hits, misses
}

type finalQuery struct {
	sink topology.NodeID
	id   ID
}

// TestLookupAllocs pins the decode path at zero allocations: Lookup, hit
// or miss, and FinalID, which walks the chain without building the hop
// ports.
func TestLookupAllocs(t *testing.T) {
	paths, tbl, hits, misses := k8Decodes(t)
	avg := testing.AllocsPerRun(100, func() {
		for i := range 64 {
			tbl.Lookup(hits[i].sink, hits[i].id)
			tbl.Lookup(misses[i].sink, misses[i].id)
			if _, ok := tbl.FinalID(paths[i]); !ok {
				t.Fatalf("FinalID misses %v", paths[i])
			}
		}
	})
	if avg != 0 {
		t.Fatalf("Lookup and FinalID allocate %.1f per run, want 0", avg)
	}
}

// BenchmarkTableLookup decodes every (sink, final ID) of k=8 all-pairs at
// 16 bits (14,720 paths), and as many (sink, ID) pairs that decode to
// nothing, per op.
func BenchmarkTableLookup(b *testing.B) {
	_, tbl, hits, misses := k8Decodes(b)
	b.ReportAllocs()
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		for _, q := range hits {
			p, _ := tbl.Lookup(q.sink, q.id)
			hops += len(p)
		}
		for _, q := range misses {
			p, _ := tbl.Lookup(q.sink, q.id)
			hops += len(p)
		}
	}
	lookupHops = hops
}

var lookupHops int
