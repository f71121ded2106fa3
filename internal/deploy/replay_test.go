package deploy

import (
	"slices"
	"testing"

	"mars/internal/dataplane"
	"mars/internal/netsim"
)

// TestReplayRegistersMatchTheCapture: on the default capture, every
// hosted sink's Arrived(sw, after) is its record log filtered to
// after < Arrival ≤ the replay clock — for watermarks before the first
// record, on, just below and just above every arrival, and past the last,
// at clocks before the run, inside it and clamped past its end — and its
// Snapshot for each captured trigger is that diagnosis filtered to the
// sink. Both are windows of storage no later call writes: a result's
// capacity ends where its records do.
func TestReplayRegistersMatchTheCapture(t *testing.T) {
	c := defaultCapture(t)
	sc := c.Scenario
	sinks := c.Sys.FT.EdgeIDs
	var clock netsim.Time
	r := &replayRegisters{cap: c, now: func() netsim.Time { return clock }}

	filter := func(recs []dataplane.RTRecord, keep func(dataplane.RTRecord) bool) []dataplane.RTRecord {
		var out []dataplane.RTRecord
		for _, rec := range recs {
			if keep(rec) {
				out = append(out, rec)
			}
		}
		return out
	}
	check := func(what string, got, want []dataplane.RTRecord) {
		t.Helper()
		if !slices.Equal(got, want) || (got == nil) != (want == nil) || len(got) != cap(got) {
			t.Fatalf("%s: %d records (cap %d, nil %v), want %d (nil %v)", what, len(got), cap(got), got == nil, len(want), want == nil)
		}
	}

	var held int
	for _, sw := range sinks {
		log := c.recordLog(sw)
		held += len(log)
		for i := 1; i < len(log); i++ {
			if log[i].Arrival < log[i-1].Arrival {
				t.Fatalf("s%d's log steps back in arrival at %d", sw, i)
			}
		}
		marks := []netsim.Time{-1}
		for _, rec := range log {
			marks = append(marks, rec.Arrival-1, rec.Arrival, rec.Arrival+1)
		}
		for _, simNow := range []netsim.Time{-1, sc.RunFor / 2, sc.RunFor, 2 * sc.RunFor} {
			clock = netsim.Time(float64(simNow) * sc.Scale)
			upTo := min(simNow, sc.RunFor)
			for _, after := range marks {
				want := filter(log, func(rec dataplane.RTRecord) bool { return rec.Arrival > after && rec.Arrival <= upTo })
				check("Arrived", r.Arrived(sw, after), want)
			}
		}
		for _, d := range c.Diags {
			i := c.matchDiag(d.Trigger)
			want := filter(c.Diags[i].Records, func(rec dataplane.RTRecord) bool { return rec.Flow.Sink == sw })
			got, stamp := r.Snapshot(sw, d.Trigger)
			check("Snapshot", got, want)
			if stamp != c.Diags[i].Time {
				t.Fatalf("Snapshot of s%d stamped %v, want %v", sw, stamp, c.Diags[i].Time)
			}
		}
	}
	if held == 0 || len(c.Diags) == 0 {
		t.Fatalf("the capture holds %d logged records and %d diagnoses; the comparison is vacuous", held, len(c.Diags))
	}
}
