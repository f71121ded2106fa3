package analysis

import (
	"go/ast"
)

// Seedflow requires every rand.NewSource argument to derive from a config
// field, function parameter, or another generator — never a literal. A
// literal seed hides inside one component and silently decouples it from
// the run's configured seed: two components with the same literal are
// correlated, and sweeping the run seed no longer sweeps them at all.
// Tests are not loaded by the engine, so fixed seeds in tests stay legal.
// A reviewed fixed seed in non-test code carries //mars:fixedseed.
var Seedflow = &Analyzer{
	Name:      "seedflow",
	Doc:       "require rand.NewSource seeds to derive from config, not literals",
	Directive: "fixedseed",
	RunModule: runSeedflow,
}

func runSeedflow(p *ModulePass) {
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFuncInfo(pkg.Info, call)
				if !isPkgFunc(fn, "math/rand", "NewSource") &&
					!isPkgFunc(fn, "math/rand/v2", "NewPCG") &&
					!isPkgFunc(fn, "math/rand/v2", "NewChaCha8") {
					return true
				}
				for _, arg := range call.Args {
					if tv, ok := pkg.Info.Types[arg]; ok && tv.Value != nil {
						p.Reportf(arg.Pos(),
							"literal seed %s in rand.%s: derive seeds from a Config/seed parameter so one run seed drives every component (//mars:fixedseed to keep a reviewed constant)",
							tv.Value.String(), fn.Name())
					}
				}
				return true
			})
		}
	}
}
