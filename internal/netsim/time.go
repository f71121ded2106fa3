// Package netsim is a deterministic discrete-event network simulator.
//
// It stands in for the paper's Mininet/BMv2 testbed: switches with
// per-port output queues, links with bandwidth and propagation delay, and
// ECMP forwarding. A pluggable Hooks interface lets MARS's data plane, the
// three baseline systems, and a plain forwarder observe and act on the
// same packet stream, which is what makes the Table 1 / Fig. 9 comparisons
// apples-to-apples.
//
// All randomness flows from a single seeded source per Simulator, and the
// event queue breaks time ties by insertion order, so runs are exactly
// reproducible.
package netsim

import "fmt"

// Time is simulation time in nanoseconds since the start of the run.
type Time int64

// Common durations in simulation time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}
