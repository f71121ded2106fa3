package experiments

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"mars"
	"mars/internal/netsim"
)

// The scale trial is the sharded engine's end-to-end tier: one full
// data-plane simulation (MARS program attached, telemetry promoted,
// registers resident per shard) at k=16/k=32 fat-tree arity, executed by
// internal/netsim.Sharded under the conservative-lookahead barrier. The
// simulated output — Render() — is invariant under the shard count (CI
// diffs shards=1 against shards=8 byte for byte); only the wall-clock and
// per-shard memory accounting on stderr vary per machine.

// DefaultScaleTrialConfig sizes a single scale-tier trial: a cross-pod
// mesh of two flows per host at a modest rate, one simulated second.
// shards<=0 means auto (GOMAXPROCS, clamped to the partition's units).
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

// ScaleTrialResult carries the simulated outcome (shard-count-invariant)
// plus the machine-dependent throughput and memory accounting.
type ScaleTrialResult struct {
	K      int
	Shards int // effective shard count actually run
	// Topology and workload dimensions.
	Switches, Hosts, Links, Flows int
	// Simulated outcome (invariant under Shards).
	Sent, Delivered, Dropped int64
	MeanLatency              netsim.Time
	TotalLinkBytes           int64
	TelemetryBytes           int64
	TelemetryPackets         int64
	Rounds                   int64
	Events                   int64
	// Machine-dependent accounting (stderr only).
	WallSeconds float64
	Mem         []netsim.MemEstimate
}

// RunScaleTrial executes one sharded data-plane trial on the shared fabric
// (NewShardedFabric, no path table, no record tap) and summarises it;
// progress (if non-nil) observes barrier rounds for the -progress
// heartbeat.
func RunScaleTrial(tc TrialConfig, progress netsim.ShardProgress) *ScaleTrialResult {
	ft := newFatTree(tc)
	simCfg := mars.DefaultConfig().Sim
	if tc.SimCfg != nil {
		simCfg = *tc.SimCfg
	}
	sh, progs, _ := NewShardedFabric(ft, tc.Shards, tc.Seed, simCfg, nil,
		tc.NumFlows, tc.RatePPS, tc.Total, progress, false)
	defer sh.Close()

	start := time.Now() //mars:wallclock the scale tier reports real sharded throughput
	sh.Run(tc.Total + 50*netsim.Millisecond)
	wall := time.Since(start).Seconds() //mars:wallclock the scale tier reports real sharded throughput

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
		Rounds:         sh.Rounds(),
		WallSeconds:    wall,
		Mem:            sh.Mem(),
	}
	if stats.Delivered > 0 {
		res.MeanLatency = stats.TotalLatency / netsim.Time(stats.Delivered)
	}
	for _, n := range sh.Events() {
		res.Events += n
	}
	for _, p := range progs {
		res.TelemetryBytes += p.Stats.TelemetryLinkBytes
		res.TelemetryPackets += p.Stats.TelemetryPackets
	}
	return res
}

// Render formats the simulated outcome. Everything here is invariant
// under the shard count — the determinism CI job diffs this output across
// shard counts — so neither Shards nor any wall-clock/memory figure may
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
	fmt.Fprintf(&b, "  engine:   barrier-rounds=%d events=%d\n", r.Rounds, r.Events)
	return b.String()
}

// RenderMem formats the per-shard memory estimates (stderr: the shard
// count and per-shard residency are machine/flag dependent).
func (r *ScaleTrialResult) RenderMem() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memory: %d shard(s), MemStats-free estimates\n", r.Shards)
	var est, peak int64
	for _, m := range r.Mem {
		fmt.Fprintf(&b, "  %s\n", m)
		est += m.EstBytes
		peak += m.PeakBytes
	}
	fmt.Fprintf(&b, "  total: est=%dKB peak=%dKB\n", est/1024, peak/1024)
	return b.String()
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

// ScaleHeartbeat builds the -progress callback for the scale tier: one
// stderr line per observed barrier epoch with the per-shard cumulative
// event counts, so long k=32 runs show liveness and load balance. The
// line is formatted into a buffer and flushed as one write per tick —
// the %v of a per-shard slice otherwise fragments into dozens of
// unbuffered stderr writes on every barrier round.
func ScaleHeartbeat(w io.Writer) netsim.ShardProgress {
	bw := bufio.NewWriter(w)
	return func(now netsim.Time, events []int64) {
		fmt.Fprintf(bw, "scale-progress: t=%v shard-events=%v\n", now, events)
		bw.Flush()
	}
}
