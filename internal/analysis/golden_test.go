package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// wantRE matches one `// want` expectation comment; the payload is one or
// more backquoted regexes.
var wantRE = regexp.MustCompile("// want (`[^`]*`(?: `[^`]*`)*)")

// expectation is one `// want` regex attached to a file:line.
type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants scans every .go file of dir for `// want` comments.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, raw := range strings.Split(m[1], "` `") {
				raw = strings.Trim(raw, "`")
				re, err := regexp.Compile(raw)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), line, raw, err)
				}
				wants = append(wants, &expectation{file: e.Name(), line: line, re: re})
			}
		}
		f.Close()
	}
	return wants
}

// runGolden loads one corpus directory, runs one analyzer, and matches the
// diagnostics against the corpus's `// want` expectations both ways.
func runGolden(t *testing.T, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", a.Name)
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{a})
	matchWants(t, diags, parseWants(t, dir))
}

// matchWants verifies diagnostics against expectations both ways: every
// diagnostic must match a want on its line, every want must be hit.
func matchWants(t *testing.T, diags []Diagnostic, wants []*expectation) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != filepath.Base(d.File) || w.line != d.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestDetrandGolden(t *testing.T)     { runGolden(t, Detrand) }
func TestMapiterGolden(t *testing.T)     { runGolden(t, Mapiter) }
func TestSeedflowGolden(t *testing.T)    { runGolden(t, Seedflow) }
func TestDetflowGolden(t *testing.T)     { runGolden(t, Detflow) }
func TestAllocfreeGolden(t *testing.T)   { runGolden(t, Allocfree) }
func TestExhaustcaseGolden(t *testing.T) { runGolden(t, Exhaustcase) }

// loadRepo loads the repository's own module once for every test that
// analyzes the real tree.
var loadRepo = sync.OnceValues(func() ([]*Package, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return LoadModule(root)
})

// TestRepoClean is the enforcement half of the suite: the repository's own
// tree must produce zero diagnostics from every analyzer. A violation
// introduced anywhere in the module fails this test (and CI's lint job).
func TestRepoClean(t *testing.T) {
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module walk is broken", len(pkgs))
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("repo must lint clean, got: %s", d)
	}
}

// TestSuppressionsLoadBearing proves the tree's //mars: suppressions are
// each excusing a live finding: with directives ignored, the findings they
// excuse must resurface. Paired with TestRepoClean (zero findings with
// directives honored), this pins that deleting any suppression flips
// mars-lint to a non-zero exit.
func TestSuppressionsLoadBearing(t *testing.T) {
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := runImpl(pkgs, All(), true)
	wants := []struct {
		analyzer string
		file     string // path suffix
		substr   string
	}{
		{"detflow", "harness/harness.go", "goroutine spawned inside the deterministic core"},
		{"allocfree", "netsim/sim.go", "append (may grow the backing array)"},
		{"allocfree", "dataplane/program.go", "escaping composite literal"},
		{"exhaustcase", "experiments/gray.go", "switch on Kind misses"},
		{"mapiter", "analysis/analysis.go", "depends on iteration order"},
	}
	for _, w := range wants {
		found := false
		for _, d := range diags {
			if d.Analyzer == w.analyzer && strings.HasSuffix(filepath.ToSlash(d.File), w.file) && strings.Contains(d.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("ignoring directives did not resurface %s finding %q in %s; is the suppression still load-bearing?",
				w.analyzer, w.substr, w.file)
		}
	}
}

// TestDiagnosticString pins the CLI's human-readable finding format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "mapiter", File: "x.go", Line: 3, Col: 7, Message: "boom"}
	want := "x.go:3:7: mapiter: boom"
	if got := fmt.Sprint(d); got != want {
		t.Errorf("Diagnostic.String() = %q, want %q", got, want)
	}
}
