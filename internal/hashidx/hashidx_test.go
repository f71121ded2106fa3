package hashidx

import (
	"math"
	"math/rand"
	"testing"
)

// TestMatchesMap drives an index and a Go map through the same random Put,
// Get and Delete sequence, across several growths, over a key pool that
// includes 0, negative int32 pairs and all-ones keys, and checks every
// answer and the length after every operation.
func TestMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := []uint64{0, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, uint64(math.MaxUint32)}
	for len(pool) < 3000 {
		src, sink := int32(rng.Intn(200)-100), int32(rng.Intn(200)-100)
		pool = append(pool, uint64(uint32(src))<<32|uint64(uint32(sink)), rng.Uint64())
	}
	var x Index
	ref := map[uint64]int32{}
	check := func(op int, k uint64) {
		t.Helper()
		got, ok := x.Get(k)
		want, wok := ref[k]
		if ok != wok || got != want {
			t.Fatalf("op %d: Get(%#x) = %d, %v; map has %d, %v", op, k, got, ok, want, wok)
		}
		if x.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, map has %d", op, x.Len(), len(ref))
		}
	}
	grown := 0
	for op := 0; op < 200000; op++ {
		k := pool[rng.Intn(len(pool))]
		switch r := rng.Intn(100); {
		case r < 55:
			v := int32(rng.Uint32())
			slots := len(x.entries)
			x.Put(k, v)
			ref[k] = v
			if slots > 0 && len(x.entries) > slots {
				grown++
			}
		case r < 85:
			want, had := ref[k]
			if got, ok := x.Delete(k); ok != had || got != want {
				t.Fatalf("op %d: Delete(%#x) = %d, %v; map had %d, %v", op, k, got, ok, want, had)
			}
			delete(ref, k)
		}
		check(op, k)
	}
	for k := range ref { //mars:mapiter-ok every entry is checked
		check(-1, k)
	}
	if grown < 5 {
		t.Fatalf("the table grew %d times; the sequence must grow it at least 5", grown)
	}
}

// TestZeroValue checks that an empty index answers without a table.
func TestZeroValue(t *testing.T) {
	var x Index
	if _, ok := x.Get(0); ok || x.Len() != 0 {
		t.Fatal("the zero Index is not empty")
	}
	if _, ok := x.Delete(0); ok {
		t.Fatal("the zero Index is not empty")
	}
	x.Put(0, 7)
	if v, ok := x.Get(0); !ok || v != 7 {
		t.Fatalf("Get(0) = %d, %v after Put(0, 7)", v, ok)
	}
}

// TestNewHoldsWithoutGrowing checks New's sizing: n entries fit without a
// resize.
func TestNewHoldsWithoutGrowing(t *testing.T) {
	for _, n := range []int{0, 1, 6, 7, 100, 12288, 12289} {
		x := New(n)
		slots := len(x.entries)
		for k := range n {
			x.Put(uint64(k), int32(k))
		}
		if len(x.entries) != slots || full(n, slots) {
			t.Fatalf("New(%d): %d slots, %d after %d puts", n, slots, len(x.entries), n)
		}
	}
}

// meanProbe is the mean number of slots a successful Get reads: each
// entry's distance from its home slot, plus one.
func meanProbe(x *Index) float64 {
	sum := 0
	for _, e := range x.entries {
		sum += int(e.dist)
	}
	return float64(sum) / float64(x.n)
}

// TestSeedSpreadsCollidingKeys inserts 10,000 keys that share one home slot
// under the index's hash at seed 0, at every table size the index passes
// through on its way to 16,384 slots: unkeyed, they would form one probe
// run. Under the index's own seed their mean probe length must stay at
// most 2; random keys average about 1.78 at this load.
func TestSeedSpreadsCollidingKeys(t *testing.T) {
	const n, homeBits = 10000, 14
	keys := make([]uint64, 0, n)
	for k := uint64(0); len(keys) < n; k++ {
		if (Hasher{}).Hash(k)&(1<<homeBits-1) == 0 {
			keys = append(keys, k)
		}
	}
	var x Index
	for i, k := range keys {
		x.Put(k, int32(i))
	}
	if len(x.entries) != 1<<homeBits {
		t.Fatalf("%d keys fill %d slots, want %d", n, len(x.entries), 1<<homeBits)
	}
	if m := meanProbe(&x); m > 2 {
		t.Fatalf("mean probe length %.2f over %d keys that collide unkeyed, want <= 2", m, n)
	}
	for i, k := range keys {
		if v, ok := x.Get(k); !ok || v != int32(i) {
			t.Fatalf("Get(%#x) = %d, %v, want %d", k, v, ok, i)
		}
	}
}

// BenchmarkGetHit measures a hit in a table of 4,096 random keys.
func BenchmarkGetHit(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, 4096)
	var x Index
	for i := range keys {
		keys[i] = rng.Uint64()
		x.Put(keys[i], int32(i))
	}
	b.ResetTimer()
	sum := int32(0)
	for i := 0; i < b.N; i++ {
		v, _ := x.Get(keys[i&4095])
		sum += v
	}
	sink = sum
}

var sink int32
