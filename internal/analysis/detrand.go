package analysis

import (
	"go/ast"
	"strings"
)

// wallclockFuncs are the time package entry points that read the ambient
// wall clock or timer wheel. Simulated components must take time from
// netsim.Simulator; only benchmarking harnesses may read the real clock,
// and they say so with //mars:wallclock.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
}

// globalRandAllowed are the math/rand package-level functions that mint
// explicit generators instead of touching the ambient global one. Their
// seed arguments are policed separately by seedflow.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// Detrand forbids ambient nondeterminism: wall-clock reads and the global
// math/rand generator. Every random draw in MARS flows from a seeded
// *rand.Rand so that a run is a pure function of its seed; every timestamp
// flows from the simulator clock. A call that legitimately needs the real
// clock (wall-time benchmarking) carries //mars:wallclock.
var Detrand = &Analyzer{
	Name:      "detrand",
	Doc:       "forbid wall-clock and global math/rand calls in deterministic code",
	Directive: "wallclock",
	RunModule: runDetrand,
}

func runDetrand(p *ModulePass) {
	for _, pkg := range p.Pkgs {
		if strings.HasPrefix(pkg.Path, "mars/examples") {
			continue // demo programs, not part of the deterministic pipeline
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch sink := ambientSink(calleeFuncInfo(pkg.Info, call)); {
				case sink == "":
				case strings.HasPrefix(sink, "time."):
					p.Reportf(call.Pos(),
						"ambient wall clock: %s couples results to real time; use the simulator clock, or annotate //mars:wallclock if this is wall-time benchmarking", sink)
				case sink == "rand.Seed":
					p.Reportf(call.Pos(),
						"rand.Seed reseeds the process-global generator; build a local rand.New(rand.NewSource(seed)) instead")
				default:
					p.Reportf(call.Pos(),
						"global RNG: %s draws from the ambient generator; draw from a seeded *rand.Rand instead", sink)
				}
				return true
			})
		}
	}
}
