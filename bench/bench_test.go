package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSampleSizeRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {199, 0.95, false}, {200, 0.95, true},
		{19, 0.5, false}, {20, 0.5, true}, {1000, 0.99, true}, {999, 0.99, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v (%d beyond)", c.n, c.q, got, c.want, beyond(c.n, c.q))
		}
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 0..100 = %v, want 90", got)
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
	if m := percentile(xs[:50], 0.9); !m.Undersampled || m.N != 50 {
		t.Errorf("p90 of 50 samples: undersampled=%v n=%d, want true and 50", m.Undersampled, m.N)
	}
	if m := percentile(xs, 0.9); m.Undersampled || m.Q1 != 25 || m.Q3 != 75 {
		t.Errorf("p90 of 101 samples: %+v", m)
	}
}

// scripted is an instance whose operations return canned results.
type scripted struct {
	warm opResult
	ops  []opResult
}

func (s *scripted) setup() (opResult, error) { return s.warm, nil }
func (s *scripted) op(input int, tr *tracer) (opResult, error) {
	sp := tr.begin("layer")
	defer tr.end(sp)
	if input >= len(s.ops) {
		panic("script exhausted")
	}
	return s.ops[input], nil
}
func (s *scripted) layers(*tracer, []opResult) (map[string]float64, error) {
	return map[string]float64{"netsim.events": 7}, nil
}

// runScript runs the script as a paced workload, whose times are not
// scaled, so that canned walls come out as they went in.
func runScript(s *scripted, trace bool) result {
	w := workload{name: "scripted", new: func(env) instance { return s }, paced: true}
	res, _ := runWorkload(w, env{sc: quickScale, trace: trace}, 0, io.Discard)
	return res
}

// Every timing is the median over operations of the operation's own
// value on the nominal machine, so one slow operation in three moves
// nothing; a latency percentile counts the samples of the whole run.
func TestScaledPerOperationMedians(t *testing.T) {
	ops := []opResult{
		{wall: 10 * time.Millisecond, work: 100, lat: []float64{2, 4, 6}, scale: 0.5}, // slow machine
		{wall: 6 * time.Millisecond, work: 100, lat: []float64{3, 3, 3}, scale: 1},
		{wall: 100 * time.Millisecond, work: 100, lat: []float64{50, 50, 1000}, scale: 1}, // a burst
	}
	out := map[string]measure{}
	endToEndMetrics(out, []float64{1, 3, 2}, ops)
	for name, want := range map[string]float64{
		"setup_s": 2, "op_ms_p50": 6, "work_per_s": 100 / 0.006, "latency_ms_p50": 3, "latency_ms_p90": 3,
	} {
		if got := out[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if m := out["latency_ms_p90"]; m.N != 9 || !m.Undersampled {
		t.Errorf("latency_ms_p90 = %+v, want the run's 9 samples, undersampled", m)
	}
	if m := out["latency_ms_p50"]; m.N != 9 || m.Undersampled {
		t.Errorf("latency_ms_p50 = %+v, want the run's 9 samples, supported", m)
	}
}

func TestSpeedometer(t *testing.T) {
	var none *speedometer
	none.probe(nil)
	none.tick(nil)
	if none.probed() != 0 || none.scaleSince(none.reading()) != 1 {
		t.Error("a nil speedometer scales")
	}
	from := speedometer{spent: 5 * probeNominal, n: 3}
	to := speedometer{spent: 9 * probeNominal, n: 5}
	if got := to.scaleSince(from); got != 0.5 {
		t.Errorf("two probes of twice the nominal time scale by %v, want 0.5", got)
	}
	if got := to.scaleSince(to); got != 1 {
		t.Errorf("no probe scales by %v, want 1", got)
	}
	s := &speedometer{}
	s.probe(nil)
	s.tick(nil) // the probe just taken is fresh
	if s.n != 1 || s.spent <= 0 || s.probed() != s.spent {
		t.Errorf("one probe and one early tick: %+v", s)
	}
}

// The warm-up operation's samples are discarded; its digest still
// anchors input 0.
func TestWarmUpDiscarded(t *testing.T) {
	op := opResult{wall: time.Millisecond, work: 10, lat: []float64{1, 2, 3}, digest: "d"}
	res := runScript(&scripted{warm: opResult{lat: []float64{1e9}, digest: "d"}, ops: []opResult{op}}, false)
	if !res.Correct || res.Attempted != 1 {
		t.Fatalf("scripted run: %+v", res)
	}
	if m := res.Metrics["latency_ms_p50"]; m.N != 3 || m.Value != 2 {
		t.Errorf("latency_ms_p50 = %+v, want the operation's 3 samples with median 2", m)
	}
	if m := res.Metrics["work_per_s"]; m.Value != 10000 {
		t.Errorf("work_per_s = %v, want 10000", m.Value)
	}
}

func TestDigestMismatchAndPanicFail(t *testing.T) {
	op := opResult{wall: time.Millisecond, work: 1, digest: "other"}
	if res := runScript(&scripted{warm: opResult{digest: "d"}, ops: []opResult{op}}, false); res.Correct || res.Failed != 1 {
		t.Errorf("digest mismatch with the warm-up on input 0: %+v", res)
	}
	if res := runScript(&scripted{warm: opResult{digest: "d"}}, false); res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("panicking operation: %+v", res)
	}
	// A traced run repeats each input untraced then traced: equal digests pass.
	same := opResult{wall: time.Millisecond, work: 1, digest: "d"}
	if res := runScript(&scripted{warm: same, ops: []opResult{same}}, true); !res.Correct || res.Attempted != 2 {
		t.Errorf("traced pair on one input: %+v", res)
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "x", "--seed", "3", "--seconds", "10", "--trace", "1"})
	if want := "--workload x --seed 3 --seconds 10 --trace=1"; strings.Join(got, " ") != want {
		t.Errorf("got %q, want %q", strings.Join(got, " "), want)
	}
	if got := joinTraceValue([]string{"-trace", "-quick"}); strings.Join(got, " ") != "-trace -quick" {
		t.Errorf("bare -trace rewritten to %q", got)
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables in metrics.go and main.go say the same.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the bench %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the bench %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: name or why outside the contract's limits (why is %d characters)", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, d decl) {
		if name != d.name || unit != d.unit || better != d.better {
			t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the bench %s/%s/%s", kind, i, name, unit, better, d.name, d.unit, d.better)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("%s %q (%q): malformed or repeated", kind, name, unit)
		}
		seen[name] = true
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the bench %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		e := m.EndToEnd[i]
		check("end_to_end", i, e.Name, e.Unit, e.Better, d)
		if e.Bound == nil || *e.Bound < 0 || *e.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound missing or outside [0, 0.25]", e.Name)
		}
	}
	for i, d := range perLayer {
		e := m.PerLayer[i]
		check("per_layer", i, e.Name, e.Unit, e.Better, d)
	}
}

// The quick path: one operation per workload on a k=4 fabric of 3
// epochs, untraced and traced, through the command's own entry point.
func TestQuickRun(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				out := t.TempDir() + "/trace.json"
				code := run([]string{"-quick", "-trace-out", out, "--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var got map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line of stdout is not JSON: %v", err)
				}
				if len(got) != 4 {
					t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", got)
				}
				var res struct {
					Correct           *bool
					Attempted, Failed *int
					Metrics           map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if res.Correct == nil || !*res.Correct || res.Failed == nil || *res.Failed != 0 || res.Attempted == nil || *res.Attempted < 1 {
					t.Errorf("correct/attempted/failed = %s/%s/%s\n%s", got["correct"], got["attempted"], got["failed"], stderr.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok || m.Value == nil:
						t.Errorf("metric %s not emitted", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					case trace == "0" && *m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, *m.Value)
					}
				}
				if trace == "1" {
					checkSpans(t, out, notOn[w.name])
					if share := res.Metrics["rca.share_of_trial"].Value; w.name == "trial_k4" && *share <= 0 {
						t.Errorf("rca.share_of_trial = %v, want > 0", *share)
					}
					if share := *res.Metrics["bench.unattributed_share"].Value; share < 0 || share > 0.05 {
						t.Errorf("bench.unattributed_share = %v, want within [0, 0.05]", share)
					}
				}
			})
		}
	}
}

// notOn is the interaction table's "not on" column: the layers that must
// have no span in a workload's timed region.
var notOn = map[string][]string{
	"trial_k4":           {"stream."},
	"fabric_k16":         {"rca.", "stream.", "fsm.", "controlplane."},
	"stream_replay":      {"netsim.", "dataplane.", "controlplane."},
	"stream_replay_wide": {"netsim.", "dataplane.", "controlplane."},
	"deploy_loopback":    {"netsim.", "stream."},
}

// checkSpans reads a written trace: every span closed, nested inside its
// parent, self times non-negative and summing to the root spans, and no
// span of an absent layer.
func checkSpans(t *testing.T, path string, absent []string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers []struct {
			Name string
			layerTimes
		}
		Spans []span
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("trace holds no span")
	}
	var roots int64
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			if s.Name != rootName {
				t.Errorf("span %d %s has no parent", s.ID, s.Name)
			}
			roots += s.dur()
			continue
		}
		p := doc.Spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			t.Errorf("span %d %s is not inside its parent %d %s", s.ID, s.Name, p.ID, p.Name)
		}
	}
	var selfSum int64
	for _, l := range doc.Layers {
		for _, prefix := range absent {
			if strings.HasPrefix(l.Name, prefix) {
				t.Errorf("span %s recorded, want no %s* span in this workload", l.Name, prefix)
			}
		}
		if l.Self < 0 {
			t.Errorf("layer %s has self time %d ns", l.Name, l.Self)
		}
		selfSum += l.Self
	}
	if selfSum != roots {
		t.Errorf("self times sum to %d ns, root spans to %d ns", selfSum, roots)
	}
}
