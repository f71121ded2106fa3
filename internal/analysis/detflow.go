package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Detflow is the interprocedural successor to detrand: instead of flagging
// direct ambient-nondeterminism calls wherever they appear, it walks the
// call graph from the roots whose output must be a pure function of the
// seed — the simulator event loop, the trial harness, and RCA — and flags
// every transitively reachable nondeterminism source with the concrete
// call chain that reaches it. The chain is the point: when the ROADMAP's
// sharded event heaps and streaming diagnosis land, the function that
// reads the clock will be three indirections away from the event loop,
// and a direct-call check would never see it.
//
// Sinks and their suppressions (placed at the sink site, so the existing
// //mars:wallclock comments keep working unchanged):
//
//   - wall-clock / global math/rand calls ........ //mars:wallclock
//   - goroutine spawns (`go` statements) ......... //mars:sync
//   - order-sensitive map-range hazards .......... //mars:mapiter-ok
var Detflow = &Analyzer{
	Name:            "detflow",
	Doc:             "taint-track nondeterminism reachable from simulator/harness/rca entry points",
	Directive:       "wallclock",
	ExtraDirectives: []string{"sync", "mapiter-ok"},
	RunModule:       runDetflow,
}

// detflowRoots are the deterministic cores: the netsim event loop (the
// per-event "step" that BenchmarkNetsimStep times), the harness trial
// executor whose output must be byte-identical at any worker count, and
// the RCA entry point that turns a diagnosis into a ranked culprit list.
// Golden corpora mark their roots with //mars:root instead.
var detflowRoots = []string{
	"mars/internal/netsim.Simulator.Run",
	"mars/internal/harness.Run",
	"mars/internal/rca.Analyzer.Analyze",
}

func runDetflow(p *ModulePass) {
	g := p.Graph()
	roots := moduleRoots(p, g, detflowRoots)
	if len(roots) == 0 {
		return
	}
	reach := g.Reachable(roots, nil)
	for _, n := range reach.Order {
		if n.Body == nil || skipDetflowPkg(n.Pkg) {
			continue
		}
		checkDetflowBody(p, reach, n)
	}
}

// skipDetflowPkg mirrors detrand's exemption for demo programs.
func skipDetflowPkg(pkg *Package) bool {
	return strings.HasPrefix(pkg.Path, "mars/examples")
}

// checkDetflowBody scans one reachable function for nondeterminism sinks.
// Nested literals are their own call-graph nodes and are scanned when (if)
// reached, so the walk does not descend into them.
func checkDetflowBody(p *ModulePass, reach *ReachResult, n *CGNode) {
	info := n.Pkg.Info
	var walk func(ast.Node)
	walk = func(node ast.Node) {
		walkChildren(node, func(c ast.Node) {
			switch x := c.(type) {
			case *ast.FuncLit:
				return // its own node
			case *ast.GoStmt:
				if !p.Suppressed(x.Pos(), "sync") {
					p.Reportf(x.Pos(),
						"goroutine spawned inside the deterministic core (via %s); unsynchronized scheduling breaks seed-reproducibility — annotate //mars:sync with the ordering argument if output order is externally enforced",
						reach.ChainString(n))
				}
			case *ast.CallExpr:
				if sink := ambientSink(calleeFuncInfo(info, x)); sink != "" {
					if !p.Suppressed(x.Pos(), "wallclock") {
						p.Reportf(x.Pos(),
							"%s reachable from the deterministic core via %s; take time/randomness from the simulator, or annotate //mars:wallclock if this is wall-time benchmarking",
							sink, reach.ChainString(n))
					}
				}
			case *ast.RangeStmt:
				// A mapiter-ok on the range line (or on the hazardous
				// write itself) clears the loop for detflow too: the
				// order-independence argument holds regardless of how the
				// loop was reached.
				if isMapRange(n.Pkg, x) && !p.Suppressed(x.Pos(), "mapiter-ok") {
					mapRangeHazards(n.Pkg, x, func(pos token.Pos, format string, args ...any) {
						if p.Suppressed(pos, "mapiter-ok") {
							return
						}
						p.Reportf(pos,
							"order-sensitive map iteration reachable from the deterministic core via %s; iterate det.Keys or annotate //mars:mapiter-ok",
							reach.ChainString(n))
					})
				}
			}
			walk(c)
		})
	}
	walk(n.Body)
}

// moduleRoots resolves the given qualified names to call-graph nodes and
// adds any function whose declaration carries //mars:root — the way golden
// corpora (whose package path is just the directory base) declare entry
// points.
func moduleRoots(p *ModulePass, g *CallGraph, qnames []string) []*CGNode {
	want := make(map[string]bool, len(qnames))
	for _, q := range qnames {
		want[q] = true
	}
	var out []*CGNode
	for _, n := range g.Nodes {
		if n.Decl == nil {
			continue
		}
		if want[n.QName()] {
			out = append(out, n)
			continue
		}
		pos := p.Fset.Position(n.Decl.Pos())
		if pkg := p.byFile[pos.Filename]; pkg != nil && pkg.directiveAt(pos.Filename, pos.Line, "root") != nil {
			out = append(out, n)
		}
	}
	return out
}
