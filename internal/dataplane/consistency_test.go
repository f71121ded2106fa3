package dataplane

import (
	"testing"

	"mars/internal/netsim"
	"mars/internal/workload"
)

// TestSourceSinkCountConsistency: with steady multi-subflow traffic and no
// loss, RT records must show SourceCount ≈ SinkCount (within the relative
// in-flight margin) for every epoch after the first.
func TestSourceSinkCountConsistency(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 77)
	src1, src2 := env.ft.HostIDs[0], env.ft.HostIDs[1] // both behind edge0
	dst1, dst2 := env.ft.HostIDs[8], env.ft.HostIDs[9] // both behind edge4 (pod1)
	for i, pair := range [][2]int{{0, 0}, {1, 1}, {0, 1}, {1, 0}} {
		srcs := []int32{int32(src1), int32(src2)}
		dsts := []int32{int32(dst1), int32(dst2)}
		f := &workload.Flow{
			Src: env.ft.HostIDs[0]*0 + env.ft.HostIDs[0], Dst: dst1,
			Key: netsim.FlowKey(i + 1), RatePPS: 220, Gaps: workload.GapExponential,
			Start: 0, Stop: 3 * netsim.Second,
		}
		_ = srcs
		_ = dsts
		_ = pair
		f.Src = env.ft.HostIDs[pair[0]]
		f.Dst = env.ft.HostIDs[8+pair[1]]
		f.Install(env.sim)
	}
	env.sim.Run(4 * netsim.Second)
	sink, _ := env.ft.EdgeSwitchOf(dst1)
	recs := env.prog.RTSnapshot(nil, sink)
	if len(recs) < 10 {
		t.Fatalf("records = %d", len(recs))
	}
	bad := 0
	for _, r := range recs {
		if r.Epoch < 2 {
			continue
		}
		diff := int64(r.SourceCount) - int64(r.SinkCount)
		margin := int64(r.SourceCount/8 + 3)
		if diff > margin || diff < -margin {
			bad++
			t.Logf("epoch %d: src=%d sink=%d diff=%d", r.Epoch, r.SourceCount, r.SinkCount, diff)
		}
	}
	if bad > len(recs)/10 {
		t.Errorf("%d/%d records with count mismatch", bad, len(recs))
	}
}
