// bench-gate compares a fresh run of the gated benchmarks with the
// committed baseline and fails only on what a run measures exactly. Every
// row runs at a fixed -benchtime Nx with -benchmem, where:
//
//   - allocs/op: any increase fails. The count is the same on every run
//     and every host.
//   - B/op: fails past bytesTolerance above the baseline. Bytes are exact
//     up to the growth of maps, which follows the hash seed.
//   - ns/op: printed as old median -> new median, never gated. Wall time
//     moves with the host and its load; a speed claim is made by paired
//     runs of `go run ./bench` (DESIGN.md §10), not here.
//
// A row whose baseline has allocs/op or B/op fails when the fresh run
// lacks that column, so dropping -benchmem cannot un-gate it.
//
// Usage:
//
//	bench-gate -old BENCH_baseline.txt -new fresh.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// bytesTolerance is how far B/op may rise above the baseline. Twenty
// recordings with the CI commands on one 2 vCPU host (go1.24.0) read every
// allocs/op the same and spread B/op by at most 28 B in 506,353
// (PrefixSpan, 0.006 %) and 2 B in 14,960 (StreamStep); twenty more, with
// other counts for the zero-alloc rows, by up to 14 B in 14,960 (0.09 %).
// One per cent is ten times the widest, and a row at 0 B/op stays exact.
const bytesTolerance = 0.01

// gated lists the exact units, with the relative rise each allows.
var gated = []struct {
	unit string
	tol  float64
}{{"allocs/op", 0}, {"B/op", bytesTolerance}}

// row holds one benchmark's samples by unit ("ns/op", "B/op",
// "allocs/op"); a unit absent from its lines has no samples.
type row map[string][]float64

func median(xs []float64) float64 {
	c := slices.Clone(xs)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// parseBench reads `go test -bench` output: lines of the form
//
//	BenchmarkName-8  300000  693.9 ns/op  0 B/op  0 allocs/op
//
// The GOMAXPROCS suffix is stripped so baselines transfer across runners.
func parseBench(path string) (map[string]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]row)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := out[name]
		if r == nil {
			r = make(row)
			out[name] = r
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				r[fields[i+1]] = append(r[fields[i+1]], v)
			}
		}
	}
	return out, sc.Err()
}

// gateResult is one benchmark's verdict.
type gateResult struct {
	name    string
	verdict string // "ok", "FAIL", "skip"
	detail  string
}

// gate compares baselines against fresh runs and returns per-benchmark
// verdicts plus overall failure. Benchmarks present on only one side are
// reported but never fail the gate (renames land with a new baseline).
func gate(old, fresh map[string]row) (results []gateResult, failed bool) {
	var names []string
	//mars:mapiter-ok the collected keys are sorted immediately below
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := old[name]
		f, ok := fresh[name]
		if !ok {
			results = append(results, gateResult{name, "skip", "missing from new run"})
			continue
		}
		res := gateResult{name: name, verdict: "ok"}
		var notes []string
		if len(o["ns/op"]) > 0 && len(f["ns/op"]) > 0 {
			notes = append(notes, fmt.Sprintf("ns/op %.1f -> %.1f", median(o["ns/op"]), median(f["ns/op"])))
		}
		for _, g := range gated {
			if len(o[g.unit]) == 0 {
				continue
			}
			was := slices.Max(o[g.unit])
			if len(f[g.unit]) == 0 {
				res.verdict = "FAIL"
				notes = append(notes, fmt.Sprintf("%s %g -> missing (run the row with -benchmem)", g.unit, was))
				continue
			}
			now := slices.Max(f[g.unit])
			note := fmt.Sprintf("%s %g -> %g", g.unit, was, now)
			if limit := was * (1 + g.tol); now > limit {
				res.verdict = "FAIL"
				note += fmt.Sprintf(" (limit %g)", limit)
			}
			notes = append(notes, note)
		}
		res.detail = strings.Join(notes, ", ")
		failed = failed || res.verdict == "FAIL"
		results = append(results, res)
	}
	//mars:mapiter-ok results are sorted by name immediately below
	for name := range fresh {
		if _, ok := old[name]; !ok {
			results = append(results, gateResult{name, "skip", "missing from baseline (add it on the next re-baseline)"})
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].name < results[j].name })
	return results, failed
}

func main() {
	var (
		oldPath = flag.String("old", "", "committed baseline benchmark output")
		newPath = flag.String("new", "", "fresh benchmark output to gate")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "bench-gate: both -old and -new are required")
		os.Exit(2)
	}
	old, err := parseBench(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-gate: %v\n", err)
		os.Exit(2)
	}
	fresh, err := parseBench(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-gate: %v\n", err)
		os.Exit(2)
	}
	if len(old) == 0 || len(fresh) == 0 {
		fmt.Fprintln(os.Stderr, "bench-gate: no benchmark lines parsed")
		os.Exit(2)
	}
	results, failed := gate(old, fresh)
	for _, r := range results {
		fmt.Printf("%-6s %-40s %s\n", r.verdict, r.name, r.detail)
	}
	if failed {
		fmt.Println("bench-gate: FAIL")
		os.Exit(1)
	}
	fmt.Println("bench-gate: ok")
}
