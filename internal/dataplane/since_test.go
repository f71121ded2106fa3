package dataplane

import (
	"math/rand"
	"slices"
	"testing"

	"mars/internal/netsim"
	"mars/internal/workload"
)

// checkSince asserts that snap — a Ring Table oldest-first — never steps
// back in Arrival, the order Since's binary search relies on, and that
// since(dst, t) appends snap filtered by Arrival > t to dst (nil stays nil
// when nothing did) for t before the first record, after the last, and on,
// just below and just above every arrival.
func checkSince(t *testing.T, snap []RTRecord, since func([]RTRecord, netsim.Time) []RTRecord) {
	t.Helper()
	marks := []netsim.Time{-1, 0}
	for i, r := range snap {
		if i > 0 && r.Arrival < snap[i-1].Arrival {
			t.Fatalf("record %d arrived at %v, before record %d at %v", i, r.Arrival, i-1, snap[i-1].Arrival)
		}
		marks = append(marks, r.Arrival-1, r.Arrival, r.Arrival+1)
	}
	head := RTRecord{Epoch: 1 << 30}
	for _, at := range marks {
		var want []RTRecord
		for _, r := range snap {
			if r.Arrival > at {
				want = append(want, r)
			}
		}
		got := since(nil, at)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Since(nil, %v) = %d records, want %d of %d (nil: got %v, want %v)",
				at, len(got), len(want), len(snap), got == nil, want == nil)
		}
		if got := since([]RTRecord{head}, at); !slices.Equal(got, append([]RTRecord{head}, want...)) {
			t.Fatalf("Since(dst, %v) = %d records, want dst's one and then %d", at, len(got), len(want))
		}
	}
}

// TestRingTableSinceMatchesFilteredSnapshot: on seeded rings of every
// size up to 16 — partial, full, wrapped many times over — with runs of
// equal arrivals, Since is the filtered snapshot, and writing into its
// result leaves the ring untouched.
func TestRingTableSinceMatchesFilteredSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 500; trial++ {
		rt := NewRingTable(1 + rng.Intn(16))
		var at netsim.Time
		for i, n := 0, rng.Intn(50); i < n; i++ {
			at += netsim.Time(rng.Intn(3)) // 0 repeats the previous arrival
			rt.Push(RTRecord{Epoch: uint32(i), Arrival: at})
		}
		checkSince(t, rt.Snapshot(nil), rt.Since)
		if got := rt.Since(nil, -1); len(got) > 0 {
			got[0].Epoch = 1 << 31
			if rt.Snapshot(nil)[0].Epoch == 1<<31 {
				t.Fatal("Since aliases the ring")
			}
		}
	}
}

// TestRTSinceOnLiveRings: the sinks of a running fabric push in arrival
// order, through ring wrap and across a reboot flush, and RTSince answers
// every watermark exactly as the filtered snapshot does.
func TestRTSinceOnLiveRings(t *testing.T) {
	env := newEnv(t, DefaultProgramConfig(), 46)
	dst := env.ft.HostIDs[0]
	for i, src := range env.ft.HostIDs[2:] {
		f := &workload.Flow{Src: src, Dst: dst, Key: netsim.FlowKey(i + 1), RatePPS: 20,
			Gaps: workload.GapExponential, Start: 0, Stop: 12 * netsim.Second}
		f.Install(env.sim)
	}
	sink, _ := env.ft.EdgeSwitchOf(dst)
	check := func() {
		t.Helper()
		for _, sw := range env.ft.EdgeIDs {
			checkSince(t, env.prog.RTSnapshot(nil, sw), func(dst []RTRecord, at netsim.Time) []RTRecord { return env.prog.RTSince(dst, sw, at) })
		}
	}

	env.sim.Run(9 * netsim.Second)
	if got := env.prog.states[sink].rt; !got.full || got.next == 0 {
		t.Fatalf("sink ring not wrapped mid-buffer (full=%v next=%d): the run is too short", got.full, got.next)
	}
	check()
	env.prog.FlushSwitch(sink)
	if got := env.prog.RTSince(nil, sink, -1); got != nil {
		t.Fatalf("flushed sink still answers %d records", len(got))
	}
	env.sim.Run(11 * netsim.Second)
	if len(env.prog.RTSnapshot(nil, sink)) == 0 {
		t.Fatal("flushed sink took no records afterwards")
	}
	check()
	if got := env.prog.RTSince(nil, env.ft.CoreIDs[0], -1); got != nil {
		t.Fatalf("a core switch answers %d records; it keeps no Ring Table", len(got))
	}
}
