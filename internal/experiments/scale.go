package experiments

import (
	"fmt"
	"strings"

	"mars/internal/dataplane"
	"mars/internal/harness"
	"mars/internal/pathid"
	"mars/internal/topology"
)

// ScaleRow captures MARS's per-network costs at one fat-tree arity.
type ScaleRow struct {
	K          int
	Switches   int
	Hosts      int
	Paths      int
	MaxHops    int
	HeaderB    int
	MATEntries int
	MATBytes   int
	// IntSightEntries is the per-hop-encoding baseline at the same scale.
	IntSightEntries int
	IntSightBytes   int
}

// ScaleResult is the K-sweep backing the paper's Motivation #2 claim that
// the path-aware method "is independent of the length of the path and
// does not raise extra costs as the network becomes larger".
type ScaleResult struct {
	Rows []ScaleRow
	// Width is the PathID width used (wider IDs for bigger path sets).
	Width uint
}

// RunScaleWith sweeps fat-tree arities and measures MARS's header and
// memory costs against IntSight's encoding. A 16-bit PathID accommodates
// the larger path sets (the 8-bit default is sized for K=4). Each arity is
// one sweep row of one unseeded trial, so big-K topology and table builds
// proceed in parallel; rows come back in sweep order.
func RunScaleWith(cfg harness.Config, ks []int) *ScaleResult {
	out := &ScaleResult{Width: 16}
	idCfg := pathid.Config{Alg: pathid.CRC16, Width: out.Width}
	var rows []sweepRow[ScaleRow]
	for _, k := range ks {
		rows = append(rows, sweepRow[ScaleRow]{fmt.Sprintf("K=%d", k), func(int, int64) ScaleRow {
			return scaleRow(k, idCfg)
		}})
	}
	for _, r := range sweep(cfg, "scale", rows, []sweepKind{{0, "build"}}, 1, 0) {
		out.Rows = append(out.Rows, r[0])
	}
	return out
}

// scaleRow builds the arity-k fabric's path table and reads off its costs.
func scaleRow(k int, cfg pathid.Config) ScaleRow {
	ft, err := topology.NewFatTree(k)
	if err != nil {
		panic(err)
	}
	paths := ft.AllEdgePairPaths()
	maxHops := 0
	for _, p := range paths {
		if len(p) > maxHops {
			maxHops = len(p)
		}
	}
	tbl, err := pathid.BuildTable(cfg, ft.Topology, paths)
	if err != nil {
		panic(err)
	}
	intSight := pathid.IntSightMATEntries(paths)
	return ScaleRow{
		K:               k,
		Switches:        ft.NumSwitches(),
		Hosts:           ft.NumHosts(),
		Paths:           len(paths),
		MaxHops:         maxHops,
		HeaderB:         cfg.HeaderBytes() + dataplane.TelemetryHeaderBytes,
		MATEntries:      tbl.MATEntryCount(),
		MATBytes:        tbl.MemoryBytes(),
		IntSightEntries: intSight,
		IntSightBytes:   intSight * pathid.IntSightMATEntryBytes,
	}
}

// Render formats the sweep.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale: MARS monitoring cost vs fat-tree arity (PathID width %d)\n", r.Width)
	fmt.Fprintf(&b, "%-4s %9s %6s %7s %8s %9s %10s %10s %12s %12s\n",
		"K", "switches", "hosts", "paths", "maxhops", "header(B)", "MARS-MAT", "MARS(B)", "IntSight-MAT", "IntSight(B)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-4d %9d %6d %7d %8d %9d %10d %10d %12d %12d\n",
			row.K, row.Switches, row.Hosts, row.Paths, row.MaxHops, row.HeaderB,
			row.MATEntries, row.MATBytes, row.IntSightEntries, row.IntSightBytes)
	}
	b.WriteString("Header bytes stay flat with scale; MARS MAT memory grows only with hash collisions,\n")
	b.WriteString("while the per-hop encoding grows with (paths x hops).\n")
	return b.String()
}
