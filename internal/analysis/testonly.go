package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Testonly flags exported funcs and methods of internal/ packages that no
// types.Info.Uses of the load names (the engine loads no test files;
// bench/, cmd/ and examples/ count), except a method that puts a type of
// the load in an interface, through embedding or from the standard library.
// //mars:test-seam <who needs it> marks an export other packages' tests
// need; it goes stale once the export gains a caller.
var Testonly = &Analyzer{
	Name:      "testonly",
	Doc:       "flag exported internal/ funcs and methods that no non-test code calls",
	Directive: "test-seam",
	RunModule: runTestonly,
}

func runTestonly(p *ModulePass) {
	used := make(map[*types.Func]bool)
	own := make(map[*types.Package]bool)
	for _, pkg := range p.Pkgs {
		own[pkg.Types] = true
		for _, obj := range pkg.Info.Uses { //mars:mapiter-ok builds an unordered set
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	// *T for each non-generic type of the load; each imported interface.
	var named []types.Type
	ifaces := map[string][]*types.Interface{"Error": {types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}}
	seen := make(map[*types.Package]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			} else if n, ok := tn.Type().(*types.Named); ok && own[tp] && n.TypeParams().Len() == 0 {
				named = append(named, types.NewPointer(n))
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range p.Pkgs {
		visit(pkg.Types)
	}
	// satisfies: fn puts a type of the load in an interface.
	satisfies := func(fn *types.Func) bool {
		for _, t := range named {
			if obj, _, _ := types.LookupFieldOrMethod(t, false, fn.Pkg(), fn.Name()); obj != fn {
				continue
			}
			for _, it := range ifaces[fn.Name()] {
				if types.Implements(t, it) {
					return true
				}
			}
		}
		return false
	}
	for _, pkg := range p.Pkgs {
		// Module packages outside internal/ are the public API and the
		// programs; a bare-directory corpus load is all in scope.
		if strings.HasPrefix(pkg.Path, "mars") && !strings.HasPrefix(pkg.Path, "mars/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				if used[fn] || fd.Recv != nil && satisfies(fn) {
					continue
				}
				p.Reportf(fd.Pos(), "%s is exported but only tests call it: delete it, unexport it, or mark it //mars:test-seam <who needs it>", fn.FullName())
			}
		}
	}
}
