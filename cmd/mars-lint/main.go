// mars-lint runs the repo's determinism and hot-path static-analysis suite
// (internal/analysis). It is stdlib-only and builds offline.
//
// Usage:
//
//	mars-lint ./...              # lint the whole module
//	mars-lint internal/rca       # lint one directory as a bare package
//	mars-lint -json ./...        # machine-readable findings
//	mars-lint -only detflow ./...# run a subset of analyzers
//	mars-lint -list              # describe the analyzers
//
// Exit codes: 0 clean, 1 findings, 2 load or usage error — suitable for CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mars/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI, factored so tests can drive it with captured
// streams. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mars-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as JSON")
		list    = fs.Bool("list", false, "list analyzers and exit")
		only    = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprint(stdout, AnalyzerList())
		return 0
	}

	analyzers := analysis.All()
	if *only != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "mars-lint: unknown analyzer %q; valid names: %s\n",
					strings.TrimSpace(name), strings.Join(analyzerNames(), ", "))
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	targets := fs.Args()
	if len(targets) == 0 {
		targets = []string{"./..."}
	}
	var pkgs []*analysis.Package
	for _, arg := range targets {
		if arg == "./..." || arg == "..." {
			root, err := moduleRoot()
			if err != nil {
				return fail(stderr, err)
			}
			loaded, err := analysis.LoadModule(root)
			if err != nil {
				return fail(stderr, err)
			}
			pkgs = append(pkgs, loaded...)
			continue
		}
		pkg, err := analysis.LoadDir(arg)
		if err != nil {
			return fail(stderr, err)
		}
		pkgs = append(pkgs, pkg)
	}

	diags := analysis.Run(pkgs, analyzers)
	if *jsonOut {
		if diags == nil {
			diags = []analysis.Diagnostic{} // a clean run renders as [], not null
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			return fail(stderr, err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "mars-lint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// AnalyzerList renders the -list output: one line per analyzer with its
// doc string and suppression directive. README.md embeds this text
// verbatim between lint-list markers; CI diffs the two.
func AnalyzerList() string {
	var b strings.Builder
	for _, a := range analysis.All() {
		suppress := "not suppressible"
		if a.Directive != "" {
			suppress = "suppress with //mars:" + a.Directive
		}
		fmt.Fprintf(&b, "%-12s %s (%s)\n", a.Name, a.Doc, suppress)
	}
	return b.String()
}

func analyzerNames() []string {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	return names
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("mars-lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "mars-lint:", err)
	return 2
}
