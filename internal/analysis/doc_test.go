package analysis

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestPackageDocListsEveryAnalyzer: the package comment names each
// analyzer All returns, with the suppression directives it honors.
func TestPackageDocListsEveryAnalyzer(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "analysis.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	entries := make(map[string]string) // analyzer name -> its bullet
	for _, item := range strings.Split(doc, "\n  - ")[1:] {
		name, rest, ok := strings.Cut(item, ":")
		if !ok {
			t.Fatalf("bullet %q names no analyzer", item)
		}
		entries[name] = rest
	}
	for _, a := range All() {
		entry, ok := entries[a.Name]
		if !ok {
			t.Errorf("the package doc does not list analyzer %s", a.Name)
			continue
		}
		for _, d := range append([]string{a.Directive}, a.ExtraDirectives...) {
			if d != "" && !strings.Contains(entry, "//mars:"+d) {
				t.Errorf("the package doc's %s entry does not name //mars:%s", a.Name, d)
			}
		}
	}
	if len(entries) != len(All()) {
		t.Errorf("the package doc lists %d analyzers, All returns %d", len(entries), len(All()))
	}
}
