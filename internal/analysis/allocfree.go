package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Allocfree is the static half of the hot-path allocation budget. The
// dynamic half already exists: the AllocsPerRun guard tests pin the packet
// pipeline at 0 allocs/op. Those guards are exact but reactive — they fire
// after an allocation regresses, and only on the inputs the benchmark
// drives. This analyzer is proactive and path-complete: it walks the call
// graph from the event loop and the dataplane packet hooks and flags every
// potential allocation site in reachable code, before any benchmark runs.
//
// The two views cross-check each other through the suppression format:
//
//	//mars:alloc <GuardTestName> <why the allocation is amortized>
//
// A static finding may only be excused by citing the dynamic AllocsPerRun
// guard that proves the site is amortized (pool refills, capacity-retained
// appends). Citing an unknown guard is itself a finding, and the test
// suite pins the analyzer's guard registry against the Test*Allocs
// functions actually present in the tree — so neither view can drift from
// the other silently.
//
// Flagged in reachable envelope code: composite literals that escape via
// &T{...}, slice/map/chan literals, make/new, append, closures, fmt calls,
// and non-pointer-to-interface conversions (boxing). Arguments to panic
// are exempt: a panicking packet path is already off the performance cliff.
var Allocfree = &Analyzer{
	Name:         "allocfree",
	Doc:          "statically forbid allocation sites reachable from the packet hot path",
	Directive:    "alloc",
	SelfSuppress: true,
	RunModule:    runAllocfree,
}

// allocfreeRoots: the netsim event loop plus the dataplane packet hooks
// with non-promoted bodies (OnSwitchArrival/OnDeliver promote to
// NopHooks's empty methods). Corpora mark roots with //mars:root.
var allocfreeRoots = []string{
	"mars/internal/netsim.Simulator.Run",
	"mars/internal/netsim.Simulator.RunAll",
	"mars/internal/dataplane.Program.OnForward",
	"mars/internal/dataplane.Program.OnDrop",
	"mars/internal/dataplane.Program.OnDeliver",
	"mars/internal/dataplane.Program.OnSwitchArrival",
}

// allocEnvelope is the set of packages that participate in the per-packet
// hot path. Reachability is restricted to it: the event loop's dynamic
// dispatch (e.fn() for control-plane callbacks) and out-of-envelope
// interface implementations (telemetry codecs under study, notification
// sinks) are cold-path by design and are excluded — the typed-event
// agenda exists precisely so the packet path never runs a closure.
var allocEnvelope = map[string]bool{
	"mars/internal/netsim":    true,
	"mars/internal/dataplane": true,
	"mars/internal/pathid":    true,
	"mars/internal/topology":  true,
}

// allocGuards registers the dynamic AllocsPerRun guard tests that a
// //mars:alloc suppression may cite. TestAllocfreeGuardRegistry pins this
// set against the Test*Allocs functions actually present in the repo.
var allocGuards = map[string]bool{
	"TestNetsimStepAllocs":               true,
	"TestPerHopFoldAllocs":               true,
	"TestPromoteAllocs":                  true,
	"TestSinkRecordAllocs":               true,
	"TestProgramSteadyStateAllocs":       true,
	"TestTelemetrySinkAllocs":            true,
	"TestShardedStepAllocs":              true,
	"TestStreamIngestAllocs":             true,
	"TestStreamEvictingIngestAllocs":     true,
	"TestAnalyzeWindowSteadyStateAllocs": true,
}

// AllocGuardTests returns the registered guard-test names, sorted.
func AllocGuardTests() []string {
	out := make([]string, 0, len(allocGuards))
	for g := range allocGuards { //mars:mapiter-ok the collected names are fully sorted below before return
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

func runAllocfree(p *ModulePass) {
	g := p.Graph()
	roots := moduleRoots(p, g, allocfreeRoots)
	if len(roots) == 0 {
		return
	}
	inEnvelope := func(pkg *Package) bool {
		// Module packages are gated by the envelope list; bare-directory
		// corpus loads (paths without the module prefix) are all-in.
		if strings.HasPrefix(pkg.Path, "mars") {
			return allocEnvelope[pkg.Path]
		}
		return true
	}
	reach := g.Reachable(roots, func(from *CGNode, e CGEdge) bool {
		if e.Kind == EdgeDynamic || e.Kind == EdgeClosure {
			return false
		}
		return inEnvelope(e.To.Pkg)
	})
	for _, n := range reach.Order {
		if n.Body == nil || !inEnvelope(n.Pkg) {
			continue
		}
		checkAllocBody(p, reach, n)
	}
}

// reportAlloc applies the cite-a-guard suppression protocol to one static
// allocation finding.
func reportAlloc(p *ModulePass, reach *ReachResult, n *CGNode, pos token.Pos, what string) {
	reason, ok := p.DirectiveNear(pos, "alloc")
	if ok {
		guard, _, _ := strings.Cut(reason, " ")
		if allocGuards[guard] {
			return
		}
		p.Reportf(pos,
			"//mars:alloc must cite the AllocsPerRun guard test that pins this site (got %q; known guards: %s)",
			guard, strings.Join(AllocGuardTests(), ", "))
		return
	}
	p.Reportf(pos,
		"%s on the packet hot path (reachable via %s); eliminate it, or cite the dynamic guard proving it amortized: //mars:alloc <GuardTest> <why>",
		what, reach.ChainString(n))
}

// checkAllocBody scans one hot-path-reachable function for potential
// allocation sites. Nested literals are flagged as closures where they
// appear; their bodies are only scanned if independently reachable.
func checkAllocBody(p *ModulePass, reach *ReachResult, n *CGNode) {
	info := n.Pkg.Info
	var walk func(ast.Node)
	walk = func(node ast.Node) {
		walkChildren(node, func(c ast.Node) {
			switch x := c.(type) {
			case *ast.FuncLit:
				reportAlloc(p, reach, n, x.Pos(), "closure allocation")
				return
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
						reportAlloc(p, reach, n, x.Pos(), "escaping composite literal (&T{...})")
						walk(x.X) // still scan element expressions
						return
					}
				}
			case *ast.CompositeLit:
				if t := info.TypeOf(x); t != nil {
					switch t.Underlying().(type) {
					case *types.Slice, *types.Map:
						reportAlloc(p, reach, n, x.Pos(), "slice/map literal allocation")
					}
				}
			case *ast.CallExpr:
				if skip := checkAllocCall(p, reach, n, x); skip {
					return
				}
			case *ast.AssignStmt:
				if x.Tok != token.DEFINE {
					for i, lhs := range x.Lhs {
						if i < len(x.Rhs) {
							checkBoxing(p, reach, n, x.Rhs[i], info.TypeOf(lhs))
						}
					}
				}
			case *ast.ReturnStmt:
				checkReturnBoxing(p, reach, n, x)
			}
			walk(c)
		})
	}
	walk(n.Body)
}

// checkAllocCall handles call expressions: allocating builtins, fmt calls,
// boxing at argument positions. Returns true when the walk should not
// descend (panic arguments are cold-path).
func checkAllocCall(p *ModulePass, reach *ReachResult, n *CGNode, call *ast.CallExpr) (skip bool) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				return true // failing path; allocation cost is irrelevant
			case "append":
				reportAlloc(p, reach, n, call.Pos(), "append (may grow the backing array)")
			case "make":
				reportAlloc(p, reach, n, call.Pos(), "make allocation")
			case "new":
				reportAlloc(p, reach, n, call.Pos(), "new allocation")
			}
			return false
		}
	}
	if fn := calleeFuncInfo(info, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			reportAlloc(p, reach, n, call.Pos(), "fmt call (formats through interfaces, always allocates)")
			return false
		}
		// Boxing at parameter positions of a resolved call.
		if sig, ok := fn.Type().(*types.Signature); ok {
			checkArgBoxing(p, reach, n, call, sig)
		}
	} else if sig, ok := typeAsSignature(info.TypeOf(call.Fun)); ok {
		checkArgBoxing(p, reach, n, call, sig)
	}
	return false
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// checkArgBoxing flags concrete non-pointer values passed in interface
// parameter slots.
func checkArgBoxing(p *ModulePass, reach *ReachResult, n *CGNode, call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len():
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok && !call.Ellipsis.IsValid() {
				pt = s.Elem()
			}
		}
		if pt != nil {
			checkBoxing(p, reach, n, arg, pt)
		}
	}
}

// checkReturnBoxing flags boxing at return sites against the enclosing
// function's result types.
func checkReturnBoxing(p *ModulePass, reach *ReachResult, n *CGNode, ret *ast.ReturnStmt) {
	var sig *types.Signature
	if n.Fn != nil {
		sig, _ = n.Fn.Type().(*types.Signature)
	} else if n.Lit != nil {
		sig, _ = typeAsSignature(n.Pkg.Info.TypeOf(n.Lit))
	}
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		checkBoxing(p, reach, n, res, sig.Results().At(i).Type())
	}
}

// checkBoxing reports a concrete, non-pointer-shaped value converting to
// an interface destination — the conversion heap-allocates the value.
// Pointers, interfaces, and nil are exempt (pointer-to-interface stores,
// like Packet.Meta holding *PacketMeta, do not allocate).
func checkBoxing(p *ModulePass, reach *ReachResult, n *CGNode, val ast.Expr, dest types.Type) {
	if dest == nil {
		return
	}
	if _, ok := dest.Underlying().(*types.Interface); !ok {
		return
	}
	vt := n.Pkg.Info.TypeOf(val)
	if vt == nil {
		return
	}
	switch vt.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Signature, *types.Chan:
		return
	case *types.Basic:
		if vt.Underlying().(*types.Basic).Kind() == types.UntypedNil {
			return
		}
	}
	reportAlloc(p, reach, n, val.Pos(),
		"interface boxing (concrete value converted to "+dest.String()+")")
}
