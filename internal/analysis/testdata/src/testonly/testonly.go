// Package testonly is the golden corpus for the testonly analyzer. The
// engine loads no test files, so "only tests call it" is "nothing in the
// load names it".
package testonly

import "go/types"

// Helper has no caller at all.
func Helper() int { return 1 } // want `testonly\.Helper is exported but only tests call it`

// Counter has one method that real code calls and one that only tests do.
type Counter struct{ n int }

// Inc is called by Run below.
func (c *Counter) Inc() { c.n++ }

// Value has no caller.
func (c *Counter) Value() int { return c.n } // want `\(\*testonly\.Counter\)\.Value is exported but only tests call it`

// Run is called by main-like code through a function value.
func Run() int {
	var c Counter
	c.Inc()
	var s shape = square{2}
	_ = newConfig()
	_ = live(&Program{})
	return int(s.Area())
}

var entry = Run

// shape's Area is called through the interface, which names shape.Area,
// never square.Area.
type shape interface{ Area() float64 }

type square struct{ side float64 }

func (q square) Area() float64 { return q.side * q.side }

// Registers is the seam LiveRegisters fills; *Program alone lacks
// Snapshot, so only the embedding makes SetThreshold an interface method.
type Registers interface {
	SetThreshold(v int)
	Snapshot() int
}

// Program holds the registers.
type Program struct{ threshold int }

// SetThreshold is promoted into LiveRegisters, which satisfies Registers.
func (p *Program) SetThreshold(v int) { p.threshold = v }

// LiveRegisters is a Program seen through the Registers seam.
type LiveRegisters struct{ *Program }

// Snapshot completes Registers.
func (l LiveRegisters) Snapshot() int { return l.threshold }

func live(p *Program) Registers { return LiveRegisters{p} }

// moduleImporter's Import satisfies the standard library's types.Importer.
type moduleImporter struct{}

func (*moduleImporter) Import(path string) (*types.Package, error) { return nil, nil }

func newConfig() types.Config { return types.Config{Importer: &moduleImporter{}} }

// Fixture is needed by another package's tests.
//
//mars:test-seam a test in another package builds its input with it
func Fixture() int { return 2 }

// Called was a seam, and has since gained a caller.
//
//mars:test-seam a test needs it // want `stale directive //mars:test-seam suppresses nothing`
func Called() int { return 3 }

var called = Called()
