// Package analysis is mars-lint's static-analysis engine: a stdlib-only
// (go/parser + go/ast + go/types) framework plus the repo-specific
// analyzers that machine-check MARS's determinism and hot-path invariants.
// Nothing here imports outside the standard library, so the suite builds
// and runs offline.
//
// The suite exists because MARS's evaluation rests on reproducible seeded
// runs: the PathID hash chain, the penalty-factor reservoir, and the FSM
// mining + SBFL ranking must produce byte-identical culprit lists for a
// given seed. The analyzers encode the invariants that keep that true:
//
//   - detrand:     no ambient wall-clock or global-RNG calls in
//     deterministic code (suppress: //mars:wallclock)
//   - mapiter:     no order-sensitive writes inside `range` over a map
//     (suppress: //mars:mapiter-ok)
//   - seedflow:    rand.NewSource arguments derive from config/seed
//     parameters, never literals (suppress: //mars:fixedseed)
//   - detflow:     no wall-clock, global-RNG, goroutine or map-order
//     hazard reachable through the call graph from the simulator, harness
//     and RCA entry points (suppress: //mars:wallclock, //mars:sync,
//     //mars:mapiter-ok at the sink)
//   - allocfree:   no allocation site reachable from the packet hot path
//     (suppress: //mars:alloc <GuardTest>, citing the AllocsPerRun guard
//     that pins the site)
//   - exhaustcase: a switch over an enum-like kind set handles every
//     constant (suppress: //mars:partial)
//   - testonly:    every exported internal/ func and method has a non-test
//     caller (declare a seam: //mars:test-seam)
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one check of the suite. Every analyzer receives every
// package of the load at once, plus the shared call graph.
type Analyzer struct {
	Name string
	// Doc is the one-line description shown by mars-lint -list.
	Doc string
	// Directive, when non-empty, names the //mars:<directive> suppression:
	// a finding whose line (or the line above it) carries the directive is
	// dropped by the driver (unless SelfSuppress is set).
	Directive string
	// ExtraDirectives lists additional //mars: names the analyzer consults
	// itself via Suppressed, so stale-directive accounting knows which
	// analyzers must have run before an unused directive is declared dead.
	ExtraDirectives []string
	// SelfSuppress disables the driver's automatic directive drop: the
	// analyzer validates and honors its directive itself (allocfree checks
	// that a suppression cites a real AllocsPerRun guard before accepting
	// it, which the blanket drop could not express).
	SelfSuppress bool
	RunModule    func(p *ModulePass)
}

// consumes reports whether the analyzer honors the named directive.
func (a *Analyzer) consumes(name string) bool {
	if a.Directive == name {
		return true
	}
	for _, d := range a.ExtraDirectives {
		if d == name {
			return true
		}
	}
	return false
}

// ModulePass is one (analyzer, load) execution: every package of the
// load, sharing one FileSet, plus the call graph (built once per load and
// shared between analyzers).
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Fset     *token.FileSet
	graph    **CallGraph // lazily built, shared across the load's analyzers
	byFile   map[string]*Package
	out      *[]Diagnostic // the run's findings, shared by its passes
	ignore   bool
}

// Graph returns the load's call graph, building it on first use.
func (p *ModulePass) Graph() *CallGraph {
	if *p.graph == nil {
		*p.graph = BuildCallGraph(p.Pkgs)
	}
	return *p.graph
}

// Reportf records a finding at pos, unless the analyzer's directive
// suppresses it there (see Analyzer.Directive).
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	if a := p.Analyzer; !a.SelfSuppress && a.Directive != "" && p.Suppressed(pos, a.Directive) {
		return
	}
	position := p.Fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether pos's line or the line directly above carries
// the named //mars: directive.
func (p *ModulePass) Suppressed(pos token.Pos, directive string) bool {
	_, ok := p.DirectiveNear(pos, directive)
	return ok
}

// DirectiveNear returns the named directive on pos's line or the line
// above (marking it used), plus its free-text reason. Analyzers that
// validate suppression contents (allocfree's guard citations) use this
// instead of the boolean Suppressed.
func (p *ModulePass) DirectiveNear(pos token.Pos, name string) (reason string, ok bool) {
	position := p.Fset.Position(pos)
	pkg := p.byFile[position.Filename]
	if p.ignore || pkg == nil {
		return "", false
	}
	if d := pkg.directiveAt(position.Filename, position.Line, name); d != nil {
		return d.reason, true
	}
	return "", false
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Detrand, Mapiter, Seedflow,
		Detflow, Allocfree, Exhaustcase, Testonly,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over the packages and returns the surviving
// diagnostics sorted by position. Findings suppressed by their analyzer's
// directive are dropped as they are reported, so every analyzer gets
// uniform suppression semantics for free. After the analyzers finish, any
// //mars: directive that excused nothing is itself reported
// (staledirective), provided every analyzer that could have consumed it
// actually ran.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return runImpl(pkgs, analyzers, false)
}

// runImpl is Run; with ignore set, every //mars: suppression is disabled,
// so a test can prove each directive on the tree is load-bearing.
func runImpl(pkgs []*Package, analyzers []*Analyzer, ignore bool) []Diagnostic {
	for _, pkg := range pkgs {
		pkg.resetDirectiveUse()
	}
	var out []Diagnostic

	// Passes are grouped by FileSet: packages loaded together share one
	// FileSet and one call graph; bare-directory loads each form their
	// own group.
	type group struct {
		fset   *token.FileSet
		pkgs   []*Package
		byFile map[string]*Package
		graph  *CallGraph
	}
	var groups []*group
	byFset := make(map[*token.FileSet]*group)
	for _, pkg := range pkgs {
		grp := byFset[pkg.Fset]
		if grp == nil {
			grp = &group{fset: pkg.Fset, byFile: make(map[string]*Package)}
			byFset[pkg.Fset] = grp
			groups = append(groups, grp)
		}
		grp.pkgs = append(grp.pkgs, pkg)
		for file := range pkg.directives { //mars:mapiter-ok byFile is itself an unordered index; insertion order cannot show
			grp.byFile[file] = pkg
		}
		for _, f := range pkg.Files {
			grp.byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
	}
	for _, grp := range groups {
		for _, a := range analyzers {
			pass := &ModulePass{
				Analyzer: a,
				Pkgs:     grp.pkgs,
				Fset:     grp.fset,
				graph:    &grp.graph,
				byFile:   grp.byFile,
				out:      &out,
				ignore:   ignore,
			}
			a.RunModule(pass)
		}
	}

	if !ignore {
		out = append(out, staleDirectives(pkgs, analyzers)...)
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// structuralDirectives are //mars: markers that never suppress a finding
// and so are exempt from staleness: "root" marks call-graph entry points
// in golden corpora.
var structuralDirectives = map[string]bool{"root": true}

// staleDirectives reports //mars: comments that excused nothing. A
// directive is stale only when every analyzer of the full suite that
// consumes it was part of this run (a partial -only run must not condemn
// a directive its consumer never got to use); a directive no analyzer
// recognizes at all is always a finding.
func staleDirectives(pkgs []*Package, ran []*Analyzer) []Diagnostic {
	ranSet := make(map[string]bool, len(ran))
	for _, a := range ran {
		ranSet[a.Name] = true
	}
	allConsumersRan := func(name string) (known bool, covered bool) {
		covered = true
		for _, a := range All() {
			if !a.consumes(name) {
				continue
			}
			known = true
			if !ranSet[a.Name] {
				covered = false
			}
		}
		return known, covered
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, byLine := range pkg.directives {
			for _, ds := range byLine {
				for _, d := range ds {
					if d.used || structuralDirectives[d.name] {
						continue
					}
					known, covered := allConsumersRan(d.name)
					diag := Diagnostic{
						Analyzer: "staledirective",
						Pos:      d.pos,
						File:     d.pos.Filename,
						Line:     d.pos.Line,
						Col:      d.pos.Column,
					}
					switch {
					case !known:
						diag.Message = fmt.Sprintf("unknown directive //mars:%s; no analyzer consumes it (typo?)", d.name)
					case covered:
						diag.Message = fmt.Sprintf("stale directive //mars:%s suppresses nothing; the finding it excused is gone — delete it", d.name)
					default:
						continue
					}
					out = append(out, diag) //mars:mapiter-ok diagnostics are position-sorted by runImpl before being returned
				}
			}
		}
	}
	return out
}

// rootIdent unwraps selector/index/paren/star chains to the base
// identifier: c.Bytes.X -> c, fs.pathCounts[k] -> fs, (*p).f -> p.
// Returns nil when the base is not a plain identifier (calls, literals).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// calleeFuncInfo resolves a call to the *types.Func it invokes, or nil
// (calls through function values, builtins, conversions).
func calleeFuncInfo(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.ObjectOf(id).(*types.Func)
	return f
}

// ambientSink classifies a resolved callee as a nondeterminism sink:
// "time.Now"-style wall-clock reads or draws from the global math/rand
// generator. Returns "" for deterministic calls. detrand reports these at
// direct call sites; detflow reports them transitively along the call
// graph.
func ambientSink(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallclockFuncs[fn.Name()] && isPkgFunc(fn, "time", fn.Name()) {
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !isPkgFunc(fn, fn.Pkg().Path(), fn.Name()) {
			return "" // methods on an explicit *rand.Rand are fine
		}
		if globalRandAllowed[fn.Name()] {
			return ""
		}
		return "rand." + fn.Name()
	}
	return ""
}

// isPkgFunc reports whether f is the package-level function pkgPath.name.
func isPkgFunc(f *types.Func, pkgPath, name string) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	if f.Pkg().Path() != pkgPath || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// exprString renders an expression compactly for messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	s := b.String()
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		b.WriteString(x.Name)
	case *ast.SelectorExpr:
		writeExpr(b, x.X)
		b.WriteByte('.')
		b.WriteString(x.Sel.Name)
	case *ast.IndexExpr:
		writeExpr(b, x.X)
		b.WriteString("[...]")
	case *ast.ParenExpr:
		writeExpr(b, x.X)
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, x.X)
	case *ast.CallExpr:
		writeExpr(b, x.Fun)
		b.WriteString("(...)")
	default:
		b.WriteString("expr")
	}
}
