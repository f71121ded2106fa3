package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path (module-relative for module loads, the
	// directory base for bare-directory loads).
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// directives indexes //mars:<name> comments: filename -> line -> names.
	directives map[string]map[int][]*directive
}

// directive is one parsed //mars:<name> [reason] comment. used is set when
// a finding (or an analyzer's explicit Suppressed check) consults it, so
// the driver can flag suppressions that no longer excuse anything.
type directive struct {
	name   string
	reason string
	pos    token.Position
	used   bool
}

// directiveAt returns the named directive on file:line, or else on the
// line directly above, marking every match used; nil when there is none.
// Checking the preceding line lets a standalone comment annotate the
// statement below.
func (p *Package) directiveAt(file string, line int, name string) *directive {
	var found *directive
	for _, l := range [2]int{line, line - 1} {
		for _, d := range p.directives[file][l] {
			if d.name == name {
				d.used = true
				if found == nil {
					found = d
				}
			}
		}
	}
	return found
}

// resetDirectiveUse clears the used marks, making Run idempotent when the
// same loaded packages are linted more than once.
func (p *Package) resetDirectiveUse() {
	for _, byLine := range p.directives {
		for _, ds := range byLine {
			for _, d := range ds {
				d.used = false
			}
		}
	}
}

// collectDirectives indexes every //mars: comment of a parsed file.
func collectDirectives(fset *token.FileSet, f *ast.File, into map[string]map[int][]*directive) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//mars:")
			if !ok {
				continue
			}
			name, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			byLine := into[pos.Filename]
			if byLine == nil {
				byLine = make(map[int][]*directive)
				into[pos.Filename] = byLine
			}
			byLine[pos.Line] = append(byLine[pos.Line], &directive{
				name:   name,
				reason: strings.TrimSpace(reason),
				pos:    pos,
			})
		}
	}
}

// stdImporter resolves standard-library imports from GOROOT source, so the
// engine needs no export data, network, or external tooling. One instance
// is shared per load so stdlib packages are checked once.
func stdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}

// moduleImporter serves intra-module packages from the load in progress
// and delegates everything else to the stdlib source importer.
type moduleImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// LoadModule loads every non-test package of the module rooted at root
// (the directory containing go.mod), type-checks them in dependency
// order, and returns them sorted by import path.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	type parsed struct {
		path  string
		dir   string
		files []*ast.File
		deps  []string
	}
	byPath := make(map[string]*parsed)
	var order []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		impPath := modPath
		if rel != "." {
			impPath = modPath + "/" + filepath.ToSlash(rel)
		}
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		p := &parsed{path: impPath, dir: dir, files: files}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					p.deps = append(p.deps, ip)
				}
			}
		}
		byPath[impPath] = p
		order = append(order, impPath)
	}
	sort.Strings(order)

	// Topological order over intra-module imports.
	var sorted []string
	state := make(map[string]int) // 0 unseen, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		p := byPath[path]
		deps := append([]string(nil), p.deps...)
		sort.Strings(deps)
		for _, d := range deps {
			if byPath[d] == nil {
				return fmt.Errorf("analysis: %s imports unknown module package %s", path, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[path] = 2
		sorted = append(sorted, path)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}

	imp := &moduleImporter{std: stdImporter(fset), local: make(map[string]*types.Package)}
	var pkgs []*Package
	for _, path := range sorted {
		p := byPath[path]
		pkg, err := check(fset, path, p.dir, p.files, imp)
		if err != nil {
			return nil, err
		}
		imp.local[path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir loads the single package in dir (no module context; imports must
// be standard library). Golden-file corpora are loaded this way.
func LoadDir(dir string) (*Package, error) {
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	imp := &moduleImporter{std: stdImporter(fset), local: nil}
	return check(fset, filepath.Base(dir), dir, files, imp)
}

// check type-checks one package and bundles the result.
func check(fset *token.FileSet, path, dir string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, errs[0])
	}
	pkg := &Package{
		Path:       path,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		directives: make(map[string]map[int][]*directive),
	}
	for _, f := range files {
		collectDirectives(fset, f, pkg.directives)
	}
	return pkg, nil
}

// parseDir parses every non-test Go file of dir, with comments.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// packageDirs returns every directory under root holding Go files,
// skipping testdata, hidden, and underscore-prefixed trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}
