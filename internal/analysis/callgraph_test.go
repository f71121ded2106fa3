package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCallGraph pins the engine's resolution rules on the callgraph
// corpus: static calls, conservative interface dispatch (every
// implementer), method values, and function-typed fields, each through
// its declared edge kind.
func TestCallGraph(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "callgraph"))
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph([]*Package{pkg})
	node := func(q string) *CGNode {
		t.Helper()
		for _, n := range g.Nodes {
			if n.QName() == q && n.Decl != nil {
				return n
			}
		}
		t.Fatalf("no call-graph node %q", q)
		return nil
	}
	root := node("callgraph.Root")

	all := g.Reachable([]*CGNode{root}, nil)
	for _, q := range []string{
		"callgraph.english.greet", // interface dispatch
		"callgraph.french.greet",  // conservative: every implementer
		"callgraph.helperEnglish", // static, through a dispatched method
		"callgraph.helperFrench",
		"callgraph.fieldTarget", // function-typed struct field
		"callgraph.methodValueUser",
	} {
		if !all.Has(node(q)) {
			t.Errorf("%s not reachable from Root", q)
		}
	}
	if all.Has(node("callgraph.isolated")) {
		t.Errorf("isolated must not be reachable from Root")
	}

	// The field call h.fn(1) is a dynamic edge; interface dispatch is not.
	noDyn := g.Reachable([]*CGNode{root}, func(_ *CGNode, e CGEdge) bool { return e.Kind != EdgeDynamic })
	if noDyn.Has(node("callgraph.fieldTarget")) {
		t.Errorf("fieldTarget reachable without dynamic edges; function-typed field calls must be EdgeDynamic")
	}
	if !noDyn.Has(node("callgraph.french.greet")) {
		t.Errorf("french.greet unreachable without dynamic edges; interface dispatch must be EdgeIface")
	}

	// Without interface dispatch, english.greet is still reached as a
	// method value (mv := e.greet; mv() is a dynamic edge); french.greet
	// has no other route.
	noIface := g.Reachable([]*CGNode{root}, func(_ *CGNode, e CGEdge) bool { return e.Kind != EdgeIface })
	if noIface.Has(node("callgraph.helperFrench")) {
		t.Errorf("helperFrench reachable without interface edges")
	}
	if !noIface.Has(node("callgraph.english.greet")) {
		t.Errorf("english.greet unreachable without interface edges; method values must be address-taken dynamic targets")
	}

	chain := all.ChainString(node("callgraph.helperFrench"))
	if !strings.HasPrefix(chain, "callgraph.Root") || !strings.Contains(chain, "french.greet") {
		t.Errorf("chain to helperFrench = %q; want Root -> ... -> french.greet -> helperFrench", chain)
	}
}
