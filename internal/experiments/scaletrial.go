package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mars"
	"mars/internal/netsim"
)

// The scale trial is the partitioned fabric's end-to-end tier: one full
// data-plane simulation (MARS program attached, telemetry promoted,
// registers resident per hook owner) at k=16/k=32 fat-tree arity on
// internal/netsim.Sharded. The simulated output — Render() — is invariant
// under the owner count (CI diffs shards=1 against shards=8 byte for
// byte); only the wall-clock and memory accounting on stderr vary per
// machine.

// DefaultScaleTrialConfig sizes a single scale-tier trial: a cross-pod
// mesh of two flows per host at a modest rate, one simulated second.
func DefaultScaleTrialConfig(k, shards int, seed int64) TrialConfig {
	hosts := k * k * k / 4
	return TrialConfig{
		Seed:     seed,
		K:        k,
		NumFlows: 2 * hosts,
		RatePPS:  60,
		Total:    netsim.Second,
		Shards:   shards,
	}
}

// ScaleTrialResult carries the simulated outcome (owner-count-invariant)
// plus the machine-dependent throughput and memory accounting.
type ScaleTrialResult struct {
	K      int
	Shards int // effective hook-owner count
	// Topology and workload dimensions.
	Switches, Hosts, Links, Flows int
	// Simulated outcome (invariant under Shards).
	Sent, Delivered, Dropped int64
	MeanLatency              netsim.Time
	TotalLinkBytes           int64
	TelemetryBytes           int64
	TelemetryPackets         int64
	Events                   int64
	// Machine-dependent accounting (stderr only).
	WallSeconds float64
	Mem         netsim.MemEstimate
}

// scaleSlice is the simulated time RunScaleTrial advances per Run step;
// stepping changes nothing simulated, it only gives the heartbeat a place
// to fire.
const scaleSlice = 50 * netsim.Millisecond

// RunScaleTrial executes one data-plane trial on the shared fabric
// (NewShardedFabric, no path table, no record tap) and summarises it;
// progress (if non-nil) is the -progress heartbeat, called after every
// scaleSlice of simulated time with the clock and the events dispatched
// so far.
func RunScaleTrial(tc TrialConfig, progress func(now netsim.Time, events int64)) *ScaleTrialResult {
	ft := newFatTree(tc)
	simCfg := mars.DefaultConfig().Sim
	if tc.SimCfg != nil {
		simCfg = *tc.SimCfg
	}
	sh, progs, _ := NewShardedFabric(ft, tc.Shards, tc.Seed, simCfg, nil,
		tc.NumFlows, tc.RatePPS, tc.Total, false)

	// One more slice after the workload stops drains the packets in flight.
	end := tc.Total + scaleSlice
	start := time.Now() //mars:wallclock the scale tier reports real simulator throughput
	for now := netsim.Time(0); now < end; {
		now = sh.Run(min(now+scaleSlice, end))
		if progress != nil {
			progress(now, sh.Events()[0])
		}
	}
	wall := time.Since(start).Seconds() //mars:wallclock the scale tier reports real simulator throughput

	stats := sh.MergedStats()
	res := &ScaleTrialResult{
		K:        tc.K,
		Shards:   sh.NumShards(),
		Switches: ft.NumSwitches(),
		Hosts:    ft.NumHosts(),
		Links:    len(ft.Links),
		Flows:    tc.NumFlows,
		Sent:     stats.Sent, Delivered: stats.Delivered, Dropped: stats.Dropped,
		TotalLinkBytes: sumLinkBytes(stats.LinkBytes),
		Events:         sh.Events()[0],
		WallSeconds:    wall,
		Mem:            sh.Mem()[0],
	}
	if stats.Delivered > 0 {
		res.MeanLatency = stats.TotalLatency / netsim.Time(stats.Delivered)
	}
	for _, p := range progs {
		res.TelemetryBytes += p.Stats.TelemetryLinkBytes
		res.TelemetryPackets += p.Stats.TelemetryPackets
	}
	return res
}

// Render formats the simulated outcome. Everything here is invariant
// under the owner count — the determinism CI job diffs this output across
// -shards values — so neither Shards nor any wall-clock/memory figure may
// appear.
func (r *ScaleTrialResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale trial: full data-plane run at K=%d\n", r.K)
	fmt.Fprintf(&b, "  topology: switches=%d hosts=%d links=%d flows=%d\n",
		r.Switches, r.Hosts, r.Links, r.Flows)
	fmt.Fprintf(&b, "  packets:  sent=%d delivered=%d dropped=%d mean-latency=%v\n",
		r.Sent, r.Delivered, r.Dropped, r.MeanLatency)
	fmt.Fprintf(&b, "  bytes:    links=%d telemetry=%d telemetry-packets=%d\n",
		r.TotalLinkBytes, r.TelemetryBytes, r.TelemetryPackets)
	fmt.Fprintf(&b, "  engine:   events=%d\n", r.Events)
	return b.String()
}

// RenderMem formats the simulator's memory estimate (stderr: residency
// is machine dependent).
func (r *ScaleTrialResult) RenderMem() string {
	return fmt.Sprintf("memory: MemStats-free estimate\n  %s\n", r.Mem)
}

// TimingLine is the machine-readable stderr throughput summary.
func (r *ScaleTrialResult) TimingLine() string {
	pps, eps := 0.0, 0.0
	if r.WallSeconds > 0 {
		pps = float64(r.Delivered) / r.WallSeconds
		eps = float64(r.Events) / r.WallSeconds
	}
	return fmt.Sprintf("timing: exp=scale-trial k=%d shards=%d wall=%.2fs pkts/s=%.0f events/s=%.0f",
		r.K, r.Shards, r.WallSeconds, pps, eps)
}

// ScaleHeartbeat builds the -progress callback of the scale and stream
// tiers: one stderr line per Run step with the simulated clock and the
// cumulative dispatched-event count, so long k=32 runs show liveness.
func ScaleHeartbeat(w io.Writer) func(now netsim.Time, events int64) {
	return func(now netsim.Time, events int64) {
		fmt.Fprintf(w, "scale-progress: t=%v events=%d\n", now, events)
	}
}
