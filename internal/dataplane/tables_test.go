package dataplane

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"mars/internal/pathid"
	"mars/internal/topology"
)

func TestEpochCounterRoll(t *testing.T) {
	var c epochCounter
	c.add(5, 100)
	c.add(5, 100)
	if c.count != 2 || c.bytes != 200 {
		t.Fatalf("count=%d bytes=%d", c.count, c.bytes)
	}
	c.add(6, 100)
	if c.lastEpochCount(6) != 2 {
		t.Errorf("lastEpochCount(6) = %d, want 2", c.lastEpochCount(6))
	}
	// Skipped epochs zero the previous window.
	c.add(9, 100)
	if c.lastEpochCount(9) != 0 {
		t.Errorf("lastEpochCount(9) = %d, want 0 after gap", c.lastEpochCount(9))
	}
}

func TestEpochCounterLastEpochBeforeRoll(t *testing.T) {
	// If epoch e has no packets yet for the key, the live window of e-1 is
	// the answer.
	var c epochCounter
	c.add(3, 50)
	c.add(3, 50)
	if got := c.lastEpochCount(4); got != 2 {
		t.Errorf("lastEpochCount(4) = %d, want 2", got)
	}
	if got := c.lastEpochCount(9); got != 0 {
		t.Errorf("lastEpochCount(9) = %d, want 0", got)
	}
}

func TestIngressTableOneTelemetryPerEpoch(t *testing.T) {
	it := NewIngressTable(16)
	marks := 0
	for i := 0; i < 10; i++ {
		mark, _ := it.Record(7, 1, 100)
		if mark {
			marks++
		}
	}
	if marks != 1 {
		t.Errorf("marks in one epoch = %d, want 1", marks)
	}
	mark, last := it.Record(7, 2, 100)
	if !mark {
		t.Error("new epoch should mark a telemetry packet")
	}
	if last != 10 {
		t.Errorf("lastEpochCount = %d, want 10", last)
	}
	if n := tracked(it); n != 1 {
		t.Errorf("flows = %d", n)
	}
}

func TestIngressTablePerSinkIsolation(t *testing.T) {
	it := NewIngressTable(16)
	it.Record(1, 1, 100)
	mark, _ := it.Record(2, 1, 100)
	if !mark {
		t.Error("different sink should get its own telemetry packet")
	}
	if n := tracked(it); n != 2 {
		t.Errorf("flows = %d", n)
	}
}

// tracked counts the sinks an Ingress Table has seen a packet for.
func tracked(it *IngressTable) int {
	n := 0
	for _, e := range it.entries {
		if e.haveTelem {
			n++
		}
	}
	return n
}

func TestEgressTableCounts(t *testing.T) {
	et := NewEgressTable(16)
	for i := 0; i < 5; i++ {
		et.Record(3, pathid.ID(0xAB), 1, 500)
	}
	et.Record(3, pathid.ID(0xCD), 1, 500)
	// Move to epoch 2.
	et.Record(3, pathid.ID(0xAB), 2, 500)
	if got := et.FlowLastEpochCount(3, 2); got != 6 {
		t.Errorf("flow last epoch = %d, want 6", got)
	}
	n, b := et.PathLastEpoch(3, pathid.ID(0xAB), 2)
	if n != 5 || b != 2500 {
		t.Errorf("path last epoch = %d,%d want 5,2500", n, b)
	}
	n, _ = et.PathLastEpoch(3, pathid.ID(0xCD), 2)
	if n != 1 {
		t.Errorf("other path = %d, want 1", n)
	}
	if n, _ := et.PathLastEpoch(9, pathid.ID(1), 2); n != 0 {
		t.Errorf("unknown key = %d", n)
	}
	if n := len(et.perPath); n != 2 {
		t.Errorf("entries = %d", n)
	}
}

func TestRingTableWraps(t *testing.T) {
	rt := NewRingTable(3)
	if n := len(rt.Snapshot(nil)); n != 0 || len(rt.buf) != 3 {
		t.Fatalf("empty ring len=%d cap=%d", n, len(rt.buf))
	}
	for i := uint32(1); i <= 5; i++ {
		rt.Push(RTRecord{Epoch: i})
	}
	snap := rt.Snapshot(nil)
	if len(snap) != 3 {
		t.Fatalf("len = %d", len(snap))
	}
	if snap[0].Epoch != 3 || snap[1].Epoch != 4 || snap[2].Epoch != 5 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestRingTablePartial(t *testing.T) {
	rt := NewRingTable(4)
	rt.Push(RTRecord{Epoch: 1})
	rt.Push(RTRecord{Epoch: 2})
	snap := rt.Snapshot(nil)
	if len(snap) != 2 || snap[0].Epoch != 1 || snap[1].Epoch != 2 {
		t.Errorf("partial snapshot = %v", snap)
	}
}

func TestRingTablePanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRingTable(0)
}

// Property: ring keeps exactly the last min(n, cap) pushes, oldest first.
func TestPropertyRingKeepsNewest(t *testing.T) {
	f := func(capRaw, nRaw uint8) bool {
		c := int(capRaw)%16 + 1
		n := int(nRaw) % 64
		rt := NewRingTable(c)
		for i := 0; i < n; i++ {
			rt.Push(RTRecord{Epoch: uint32(i)})
		}
		snap := rt.Snapshot(nil)
		want := n
		if want > c {
			want = c
		}
		if len(snap) != want {
			return false
		}
		for j, r := range snap {
			if r.Epoch != uint32(n-want+j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowIDKeyInjective: distinct FlowIDs have distinct keys, across the
// sign and width boundaries of both halves.
func TestFlowIDKeyInjective(t *testing.T) {
	ids := []topology.NodeID{math.MinInt32, -2, -1, 0, 1, 2, 0xFFFF, 0x10000, math.MaxInt32}
	seen := map[uint64]FlowID{}
	for _, src := range ids {
		for _, sink := range ids {
			f := FlowID{Src: src, Sink: sink}
			if g, dup := seen[f.Key()]; dup {
				t.Fatalf("%v and %v share key %#x", f, g, f.Key())
			}
			seen[f.Key()] = f
		}
	}
}

// TestRecordsArePointerFree: RTRecord and INTHeader hold no pointer,
// interface, slice, map or string anywhere in their layout, so Ring
// Tables, stream buckets and record traces are memory the garbage
// collector never scans, and copying a record needs no write barrier. A
// codec's in-band state travels as typed fixed-width fields (the pintlike
// slot's SlotIndex and SlotHops), and RTRecord keeps them in padding.
func TestRecordsArePointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
			reflect.Map, reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("%s has kind %v: records must hold no pointer", path, typ.Kind())
		}
	}
	walk("RTRecord", reflect.TypeOf(RTRecord{}))
	walk("INTHeader", reflect.TypeOf(INTHeader{}))
	if got := unsafe.Sizeof(RTRecord{}); got != 64 {
		t.Errorf("RTRecord is %d B, want 64", got)
	}
}
