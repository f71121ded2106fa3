package dataplane

import (
	"testing"

	"mars/internal/netsim"
	"mars/internal/workload"
)

func TestSourceSinkCountConsistencyFullMesh(t *testing.T) {
	cfg := DefaultProgramConfig()
	env := newEnv(t, cfg, 1259)
	workload.RandomBackground(env.sim, env.ft, workload.BackgroundConfig{
		NumFlows: 96, RatePPS: 220, RateJitter: 0.2,
		Gaps: workload.GapExponential, Start: 0, Stop: 2 * netsim.Second,
		CrossPodBias: 1.0, RoundRobinSrc: true, RoundRobinDst: true,
	}, 1)
	env.sim.Run(3 * netsim.Second)
	shown := 0
	for _, sinkSw := range env.ft.EdgeIDs {
		for _, r := range env.prog.RTSnapshot(nil, sinkSw) {
			if r.Epoch < 2 {
				continue
			}
			diff := int64(r.SourceCount) - int64(r.SinkCount)
			margin := int64(r.SourceCount/8 + 3)
			if (diff > margin || diff < -margin) && shown < 12 {
				shown++
				t.Logf("sink s%d flow %v epoch %d: src=%d sink=%d pathCnt=%d", sinkSw, r.Flow, r.Epoch, r.SourceCount, r.SinkCount, r.PathCount)
			}
		}
	}
	if shown == 0 {
		t.Log("no mismatches")
	}
}
