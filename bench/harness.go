package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"mars/internal/det"
)

// scale sizes a run. The full scale is the benchmark; quick is the smoke
// test's (one operation per workload on a k=4 fabric of 3 epochs).
type scale struct {
	k                     int // fabric arity of the k16 and stream workloads
	epochs                int
	faultStart, faultStop uint32
	reps                  int // repetitions of the set-up (setup_s is their median) and of each best-of probe
}

var (
	fullScale  = scale{k: 16, epochs: 15, faultStart: 5, faultStop: 10, reps: 3}
	quickScale = scale{k: 4, epochs: 3, faultStart: 1, faultStop: 2, reps: 1}
)

// env is everything a workload may derive its inputs from, plus the
// speedometer its long operations tick (nil when times are not scaled).
type env struct {
	seed  int64
	sc    scale
	trace bool
	speed *speedometer
}

// opResult is what one operation reports besides its span records.
type opResult struct {
	wall time.Duration
	// work is the operation's units of work and rateWall the part of the
	// operation the work rate is taken over (0 means the whole of wall).
	work     int64
	rateWall time.Duration
	// lat are the operation's latency samples in milliseconds.
	lat []float64
	// digest fingerprints the simulated outcome; equal inputs must give
	// equal digests.
	digest string
	// top1 of top1Of localization chances ranked the injected fault first.
	top1, top1Of int

	// Set by the harness: the allocator delta across the operation, the
	// speedometer's factor for its times, and whether it ran traced.
	alloc  heap
	scale  float64
	traced bool
}

// instance is one set-up of a workload: its generated inputs plus
// whatever the per-layer probes need to remember between operations.
type instance interface {
	// setup generates the inputs and runs the untimed warm-up operation,
	// which uses input 0.
	setup() (opResult, error)
	// op runs one operation on the input'th input. Workloads with a
	// single input ignore the index.
	op(input int, tr *tracer) (opResult, error)
	// layers reports the workload's per-layer metrics after a traced run.
	layers(tr *tracer, traced []opResult) (map[string]float64, error)
}

type workload struct {
	name, why string
	new       func(env) instance
	// paced marks an open loop on a wall-clock schedule: its times are
	// set by timers, not by the processor, and are reported unscaled.
	paced bool
}

// result is one workload's line of the ledger.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
	// Digest is input 0's outcome fingerprint, printed so two commits can
	// be compared; it is not pinned.
	Digest   string   `json:"digest,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

// minOps is the least number of timed operations of a run: a traced run
// needs one untraced and one traced operation on the same input.
func minOps(trace bool) int {
	if trace {
		return 2
	}
	return 1
}

// runWorkload sets the workload up, runs timed operations for the given
// time and reduces them to the declared metrics: the end-to-end ones for
// an untraced run, the per-layer ones for a traced run.
//
// A traced run alternates untraced and traced operations on the same
// input, so that the tracing overhead is a paired difference and a
// digest that changes under tracing counts as a failure.
func runWorkload(w workload, e env, seconds float64, log io.Writer) (result, *tracer) {
	res := result{Metrics: map[string]measure{}}
	fail := func(format string, args ...any) {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	if !w.paced {
		e.speed = &speedometer{}
	}
	// timed runs f between two probes and returns its wall, probes
	// excluded, with the speedometer's factor for it.
	timed := func(f func()) (time.Duration, float64) {
		from := e.speed.reading()
		e.speed.probe(nil)
		t0, p0 := now(), e.speed.probed()
		f()
		wall := now() - t0 - (e.speed.probed() - p0)
		e.speed.probe(nil)
		return wall, e.speed.scaleSince(from)
	}

	var (
		inst   instance
		setups []float64
		first  = map[int]string{} // input -> digest first seen
	)
	for r := 0; r < e.sc.reps; r++ {
		runtime.GC()
		var (
			warm opResult
			err  error
		)
		wall, scale := timed(func() {
			inst = w.new(e)
			warm, err = inst.setup()
		})
		if err != nil {
			res.Attempted = 1
			fail("set-up: %v", err)
			return res, nil
		}
		setups = append(setups, wall.Seconds()*scale)
		if want, seen := first[0]; seen && warm.digest != want {
			fail("set-up %d: warm-up digest %s differs from %s", r, warm.digest, want)
		}
		first[0] = warm.digest
	}
	res.Digest = first[0]

	var tr *tracer
	if e.trace {
		tr = &tracer{}
	}
	var ops []opResult
	limit := time.Duration(seconds * float64(time.Second))
	start := now()
	for i := 0; i < minOps(e.trace) || now()-start < limit; i++ {
		input, t := i, (*tracer)(nil)
		if e.trace {
			input = i / 2
			if i%2 == 1 {
				t = tr
			}
		}
		runtime.GC()
		var (
			r      opResult
			err    error
			h0, h1 heap
		)
		_, scale := timed(func() {
			h0 = readHeap()
			r, err = runOp(inst, input, t)
			h1 = readHeap()
		})
		res.Attempted++
		if err != nil {
			fail("op %d (input %d): %v", i, input, err)
			continue
		}
		r.alloc = heap{h1.bytes - h0.bytes, h1.objects - h0.objects}
		r.scale = scale
		r.traced = t != nil
		if want, seen := first[input]; !seen {
			first[input] = r.digest
		} else if r.digest != want {
			fail("op %d (input %d): outcome digest %s differs from %s on the same input", i, input, r.digest, want)
		}
		ops = append(ops, r)
	}

	var plain, traced []opResult
	for _, r := range ops {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if !e.trace {
		endToEndMetrics(res.Metrics, setups, plain)
	} else if len(traced) > 0 {
		vals, err := inst.layers(tr, traced)
		if err != nil {
			fail("per-layer probes: %v", err)
		}
		if vals == nil {
			vals = map[string]float64{}
		}
		benchMetrics(vals, tr, ops)
		for _, d := range perLayer {
			res.Metrics[d.name] = measure{Value: vals[d.name], Unit: d.unit}
			delete(vals, d.name)
		}
		for _, name := range det.Keys(vals) {
			fail("undeclared per-layer metric %q", name)
		}
	}
	res.Correct = res.Failed == 0
	for _, f := range res.Failures {
		fmt.Fprintf(log, "FAIL %s: %s\n", w.name, f)
	}
	return res, tr
}

// runOp runs one operation under the root span, turning a panic into the
// operation's error.
func runOp(inst instance, input int, t *tracer) (r opResult, err error) {
	if t != nil {
		t.op = input
	}
	root := t.begin(rootName)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
			if t != nil {
				t.open = t.open[:0]
				t.spans[root].End = int64(now())
			}
		}
	}()
	r, err = inst.op(input, t)
	t.end(root)
	return r, err
}

// endToEndMetrics reduces untraced operations to the end-to-end metrics.
// Every timing is the median over operations of a per-operation value on
// the nominal machine (the operation's time by its speedometer factor):
// its wall, its work rate, and the median and 90th percentile of its own
// latency samples. A burst that slows some operations of a run moves a
// percentile pooled over the run, and does not move the median
// operation. Allocation, which is a property of the input and not of
// the machine, is the mean over the inputs run.
func endToEndMetrics(out map[string]measure, setups []float64, ops []opResult) {
	var walls, rates, allocs, p50s, p90s []float64
	samples := 0
	for _, r := range ops {
		walls = append(walls, ms(r.wall)*r.scale)
		over := r.rateWall
		if over == 0 {
			over = r.wall
		}
		rates = append(rates, float64(r.work)/(over.Seconds()*r.scale))
		allocs = append(allocs, float64(r.alloc.bytes)/(1<<20))
		if len(r.lat) > 0 {
			p50s = append(p50s, quantile(r.lat, 0.5)*r.scale)
			p90s = append(p90s, quantile(r.lat, 0.9)*r.scale)
			samples += len(r.lat)
		}
	}
	// A latency percentile carries the count of the samples behind it,
	// pooled over the run, and is held to the sample-size rule on that.
	latency := func(perOp []float64, q float64) measure {
		m := percentile(perOp, 0.5)
		m.N, m.Undersampled = samples, !supported(samples, q) && q != 0.5
		return m
	}
	vals := map[string]measure{
		"setup_s":         percentile(setups, 0.5),
		"op_ms_p50":       percentile(walls, 0.5),
		"work_per_s":      percentile(rates, 0.5),
		"latency_ms_p50":  latency(p50s, 0.5),
		"latency_ms_p90":  latency(p90s, 0.9),
		"alloc_mb_per_op": {Value: mean(allocs), N: len(allocs), Q1: quantile(allocs, 0.25), Q3: quantile(allocs, 0.75)},
	}
	for _, d := range endToEnd {
		m := vals[d.name]
		m.Unit = d.unit
		out[d.name] = m
	}
}

// benchMetrics adds the instrument-quality metrics of a traced run:
// what tracing cost, as the median over same-input pairs of traced wall
// over untraced wall, and how much of the traced operations' time no
// layer span covers. It also folds the localization score, which every
// workload reports the same way.
func benchMetrics(vals map[string]float64, tr *tracer, ops []opResult) {
	var overhead []float64
	hits, chances := 0, 0
	for i := 0; i+1 < len(ops); i += 2 {
		if !ops[i].traced && ops[i+1].traced {
			traced, plain := float64(ops[i+1].wall)*ops[i+1].scale, float64(ops[i].wall)*ops[i].scale
			overhead = append(overhead, 100*(traced/plain-1))
		}
	}
	for _, r := range ops {
		if r.traced {
			hits += r.top1
			chances += r.top1Of
		}
	}
	vals["bench.trace_overhead_pct"] = quantile(overhead, 0.5)
	if root := tr.byName()[rootName]; root.Total > 0 {
		vals["bench.unattributed_share"] = float64(root.Self) / float64(root.Total)
	}
	if chances > 0 {
		vals["rca.top1_share"] = float64(hits) / float64(chances)
	}
}
