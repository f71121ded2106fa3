package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Registry is the stream service's health surface: a set of named int64
// counters and gauges with a deterministic, sorted-key JSON snapshot. It
// deliberately stores only integers — every value published through it
// must be a pure function of the simulated input, so the snapshot can sit
// on stdout under the CI determinism diffs. Wall-clock-derived figures
// (diagnoses per second, wall seconds) never enter a Registry; they are
// computed at the render site and printed to stderr.
//
// A Registry is not safe for concurrent use. The stream service funnels
// all updates through its single-threaded coordinator (workers return
// per-unit deltas that the coordinator folds in unit order), which is also
// what keeps the values byte-identical at any worker count.
type Registry struct {
	names []string // sorted
	vals  map[string]*int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{vals: make(map[string]*int64)}
}

// cell returns the value cell for name, creating it at zero on first use.
// Registering the same name twice returns the same cell, so a Counter and
// a Gauge may not share a name.
func (r *Registry) cell(name string) *int64 {
	if c, ok := r.vals[name]; ok {
		return c
	}
	c := new(int64)
	r.vals[name] = c
	i := sort.SearchStrings(r.names, name)
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = name
	return c
}

// Counter is a monotonically increasing value.
type Counter struct{ v *int64 }

// Counter registers (or fetches) the named counter.
func (r *Registry) Counter(name string) Counter { return Counter{r.cell(name)} }

// Add increments the counter; n must be non-negative.
func (c Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	*c.v += n
}

// Inc adds one.
func (c Counter) Inc() { *c.v++ }

// Gauge is a point-in-time value that may move in both directions.
type Gauge struct{ v *int64 }

// Gauge registers (or fetches) the named gauge.
func (r *Registry) Gauge(name string) Gauge { return Gauge{r.cell(name)} }

// Set replaces the gauge value.
func (g Gauge) Set(v int64) { *g.v = v }

// Get returns the named value and whether it is registered.
func (r *Registry) Get(name string) (int64, bool) {
	c, ok := r.vals[name]
	if !ok {
		return 0, false
	}
	return *c, true
}

// Snapshot renders the registry as one line of JSON with keys in sorted
// order: `{"a":1,"b":2}`. Integer-only values and explicit ordering make
// the output byte-stable — encoding/json's map marshaling also sorts, but
// building the string directly keeps the format under this package's
// control and allocation-predictable.
func (r *Registry) Snapshot() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range r.names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", name, *r.vals[name])
	}
	b.WriteByte('}')
	return b.String()
}
