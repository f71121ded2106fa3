package main

import (
	"encoding/json"
	"os"
	"path/filepath"

	"mars/internal/det"
)

// span is one timed call into a layer, recorded by the bench's own code
// around that call. Spans of one operation share Op; Parent is the span
// that was open when this one began (-1 for the operation's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end cost one comparison.
//
// Only the bench goroutine records spans. Work the program does on its
// own goroutines (deploy.RunLoopback's nodes) or from simulator timer
// callbacks (the controller's collection state machine) has no span of
// its own and shows as self time of the enclosing call until tracing
// inside the program lands (ROADMAP item 5).
type tracer struct {
	spans []span
	open  []int
	op    int
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: int64(now())})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(now())
	t.open = t.open[:len(t.open)-1]
}

// rootName is the span every traced operation opens first.
const rootName = "op"

// layerTimes is the per-name reduction of a trace.
type layerTimes struct {
	Calls int   `json:"calls"`
	Total int64 `json:"total_ns"`
	// Self is Total minus the time covered by child spans.
	Self int64 `json:"self_ns"`
}

// byName sums duration and self time per span name.
func (t *tracer) byName() map[string]layerTimes {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	out := map[string]layerTimes{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Calls++
		lt.Total += s.dur()
		lt.Self += self[i]
		out[s.Name] = lt
	}
	return out
}

// durations returns every span of one name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// write stores the spans and their per-layer reduction as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	by := t.byName()
	type layer struct {
		Name string `json:"name"`
		layerTimes
	}
	doc := struct {
		Note   string  `json:"note"`
		Layers []layer `json:"layers"`
		Spans  []span  `json:"spans"`
	}{Note: "spans are recorded by bench/ around calls into each layer; controller work run from simulator timer callbacks is self time of netsim.run"}
	for _, n := range det.Keys(by) {
		doc.Layers = append(doc.Layers, layer{n, by[n]})
	}
	doc.Spans = t.spans
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
