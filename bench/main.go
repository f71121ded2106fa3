// Command bench is the repository's benchmark: five named workloads, an
// end-to-end and per-layer ledger, and a traced run. Every layer is
// measured from outside, by timing calls into its public functions.
//
//	go run ./bench                                   all workloads, end-to-end ledger
//	go run ./bench -trace                            all workloads, per-layer ledger
//	go run ./bench -workload stream_replay -seed 7   one workload
//
// With -workload the last line of standard output is the one JSON object
// the benchmark driver reads ({"correct","attempted","failed","metrics"});
// without it, standard output is one JSON ledger of every workload. The
// human-readable table goes to standard error either way. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"

	"mars/internal/det"
)

var workloads = []workload{
	{name: "trial_k4", why: "full MARS trials through the mars.System facade: the only workload where the classic engine, dataplane, in-sim ctrlchan, controlplane and triggered rca run together", new: newTrialK4},
	{name: "fabric_k16", why: "k=16 sharded fabric with no controller and no RCA: netsim and dataplane do all the work on a working set about 20 times trial_k4's and on the other engine entry point", new: newFabricK16},
	{name: "stream_replay", why: "the fabric's record trace replayed into stream.DefaultConfig with the simulator out of the timed region: bounded, evicting state, so ingest and window analysis both show", new: newStreamReplay(false)},
	{name: "stream_replay_wide", why: "the same trace at W=8, 4 MiB, cap 1024: nothing is evicted or sampled away, ingest vanishes and each window analyses about 4 times the records", new: newStreamReplay(true)},
	{name: "deploy_loopback", why: "deploy.RunLoopback over real loopback UDP sockets: the only workload where ctrlchan wire/UDP, rtclock and controlplane timeouts run under real clocks (open loop)", new: newDeployLoopback, paced: true},
}

// environment is recorded beside every ledger so numbers are comparable.
type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// commit asks git for the checkout's revision; a checkout that is not a
// repository (the benchmark driver's) reports "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// joinTraceValue lets -trace stay a boolean flag (`-trace`) while also
// accepting the driver's spelling (`--trace 0`, `--trace 1`).
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, args[i]+"="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and print the driver's one-line result")
	seed := fs.Int64("seed", 1000, "derives every input")
	seconds := fs.Float64("seconds", 15, "how long each workload's timed operations run")
	trace := fs.Bool("trace", false, "traced run: record spans and print the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "where a traced run writes its spans (default bench/out/trace-<workload>.json)")
	quick := fs.Bool("quick", false, "smoke scale: a k=4 fabric of 3 epochs, one set-up and one operation per workload")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	e := env{seed: *seed, sc: fullScale, trace: *trace}
	if *quick {
		e.sc, *seconds = quickScale, 0
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}

	info := environment{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds, Trace: *trace,
	}
	fmt.Fprintf(stderr, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g trace=%v\n",
		info.NProc, info.GoMaxProcs, info.GoVersion, info.Commit, info.Seed, info.Seconds, info.Trace)

	results := map[string]result{}
	ok := true
	for _, w := range selected {
		res, tr := runWorkload(w, e, *seconds, stderr)
		results[w.name] = res
		ok = ok && res.Correct
		printTable(stderr, w.name, res, *trace)
		if tr != nil {
			path := *traceOut
			if path == "" {
				path = "bench/out/trace-" + w.name + ".json"
			}
			if err := tr.write(path); err != nil {
				fmt.Fprintf(stderr, "bench: writing trace: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "%s: %d spans written to %s\n", w.name, len(tr.spans), path)
		}
	}

	var doc any
	if *name != "" {
		// The driver's contract: exactly these keys, metrics as value+unit.
		res := results[*name]
		metrics := map[string]any{}
		for _, k := range det.Keys(res.Metrics) {
			m := res.Metrics[k]
			metrics[k] = struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}{m.Value, m.Unit}
		}
		doc = struct {
			Correct   bool           `json:"correct"`
			Attempted int            `json:"attempted"`
			Failed    int            `json:"failed"`
			Metrics   map[string]any `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, metrics}
	} else {
		doc = struct {
			Env       environment       `json:"env"`
			Workloads map[string]result `json:"workloads"`
		}{info, results}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	// With -workload the exit status says whether a result was produced
	// and the result says whether it is correct, so the driver can tell a
	// crash from a wrong answer; the ledger of all workloads fails loudly.
	if *name == "" && !ok {
		return 1
	}
	return 0
}

// printTable renders one workload's metrics for a reader.
func printTable(out io.Writer, name string, res result, trace bool) {
	fmt.Fprintf(out, "\n%s: ops=%d failed=%d digest=%s\n", name, res.Attempted, res.Failed, res.Digest)
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	for _, d := range decls {
		m, ok := res.Metrics[d.name]
		if !ok || (trace && m.Value == 0) {
			continue // a layer this workload does not exercise
		}
		line := fmt.Sprintf("  %s\t%.6g\t%s", d.name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("\tn=%d\tq1=%.6g\tq3=%.6g", m.N, m.Q1, m.Q3)
		}
		if m.Undersampled {
			line += fmt.Sprintf("\tundersampled: %d beyond, want %d", beyond(m.N, 0.9), minBeyond)
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()
	if trace {
		fmt.Fprintln(out, "  (controller work run from simulator timer callbacks is self time of netsim.run; layers not listed read 0)")
	}
}
