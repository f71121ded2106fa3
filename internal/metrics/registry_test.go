package metrics

import (
	"encoding/json"
	"testing"
)

func TestRegistryCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("records_ingested")
	g := r.Gauge("resident_bytes")

	c.Inc()
	c.Add(4)
	if got := *c.v; got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(1000)
	if got := *g.v; got != 1000 {
		t.Fatalf("gauge = %d, want 1000", got)
	}

	if v, ok := r.Get("records_ingested"); !ok || v != 5 {
		t.Fatalf("Get(records_ingested) = %d,%v", v, ok)
	}
	if _, ok := r.Get("absent"); ok {
		t.Fatal("Get(absent) reported registered")
	}
}

func TestRegistrySameNameSharesCell(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	a.Add(2)
	b.Add(3)
	if got := *a.v; got != 5 {
		t.Fatalf("shared cell = %d, want 5", got)
	}
	if n := len(r.names); n != 1 {
		t.Fatalf("names = %d, want 1", n)
	}
}

func TestRegistryCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	NewRegistry().Counter("c").Add(-1)
}

func TestRegistrySnapshotSortedAndValidJSON(t *testing.T) {
	r := NewRegistry()
	// Register deliberately out of order.
	r.Gauge("zeta").Set(-7)
	r.Counter("alpha").Add(1)
	r.Counter("mid").Add(42)

	got := r.Snapshot()
	want := `{"alpha":1,"mid":42,"zeta":-7}`
	if got != want {
		t.Fatalf("Snapshot() = %s, want %s", got, want)
	}

	var m map[string]int64
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if m["zeta"] != -7 || m["alpha"] != 1 || m["mid"] != 42 {
		t.Fatalf("round-trip mismatch: %v", m)
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	// Same names and values registered in different orders must render
	// identically.
	r1, r2 := NewRegistry(), NewRegistry()
	for _, n := range []string{"a", "b", "c"} {
		r1.Counter(n).Add(9)
	}
	for _, n := range []string{"c", "a", "b"} {
		r2.Counter(n).Add(9)
	}
	if r1.Snapshot() != r2.Snapshot() {
		t.Fatalf("registration order leaked into snapshot: %s vs %s", r1.Snapshot(), r2.Snapshot())
	}
}

func TestRegistryEmptySnapshot(t *testing.T) {
	if got := NewRegistry().Snapshot(); got != "{}" {
		t.Fatalf("empty Snapshot() = %q, want {}", got)
	}
}
