package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural half of the engine: a static call graph
// over every loaded package, built from the same go/types information the
// single-function analyzers already use. The graph is deliberately
// conservative — interface calls fan out to every implementer, calls
// through function values fan out to every address-taken function of
// compatible arity — because the analyzers on top of it (detflow,
// allocfree) prove *absence* properties: "nothing reachable from the
// event loop reads the wall clock", "nothing reachable from the packet
// hooks allocates". Over-approximating reachability keeps those
// proofs sound; the cost is a suppression comment at the rare
// intentionally-nondeterministic site.

// EdgeKind classifies how a call edge was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call to a declared function or method.
	EdgeStatic EdgeKind = iota
	// EdgeIface is a call through an interface method, resolved
	// conservatively to every implementing type in the load.
	EdgeIface
	// EdgeDynamic is a call through a function value, resolved to every
	// address-taken function or literal of compatible arity.
	EdgeDynamic
	// EdgeClosure links a function to a literal it creates: the literal
	// may run whenever the creator has run, even if the call site is
	// elsewhere (stored callbacks, scheduled events).
	EdgeClosure
)

// CGEdge is one outgoing call edge.
type CGEdge struct {
	Kind EdgeKind
	// Site is the call expression (or literal) position in the caller.
	Site token.Pos
	To   *CGNode
}

// CGNode is one function in the graph: either a declared function/method
// (Fn, Decl set) or a function literal (Lit set). Literals are first-class
// nodes rather than being merged into their creator, so a closure handed
// to a scheduler is reachable through its EdgeClosure/EdgeDynamic edges
// without pretending its body executes at creation time.
type CGNode struct {
	Fn   *types.Func   // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Decl *ast.FuncDecl // nil for literals
	Pkg  *Package
	Body *ast.BlockStmt
	Out  []CGEdge

	qname string
}

// QName is the node's qualified name: pkgpath.Func, pkgpath.Recv.Method
// (pointer receivers stripped), or parent.funcN for literals.
func (n *CGNode) QName() string { return n.qname }

// ShortName trims the import-path prefix for human-readable chains:
// mars/internal/netsim.Simulator.RunAll -> netsim.Simulator.RunAll.
func (n *CGNode) ShortName() string {
	if i := strings.LastIndex(n.qname, "/"); i >= 0 {
		return n.qname[i+1:]
	}
	return n.qname
}

// CallGraph is the static call graph over one load.
type CallGraph struct {
	// Nodes in deterministic build order (package path, file, position).
	Nodes []*CGNode
	byFn  map[*types.Func]*CGNode
	byLit map[*ast.FuncLit]*CGNode
}

// NodeFor returns the node of a declared function, or nil. Generic
// instantiations are canonicalized to their origin.
func (g *CallGraph) NodeFor(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.byFn[fn.Origin()]
}

// funcQName is the root-matching name of a declared function:
// pkgpath.Name for package functions, pkgpath.Recv.Name for methods with
// pointer stars stripped, so "mars/internal/netsim.Simulator.Run" matches
// the pointer-receiver method too.
func funcQName(fn *types.Func) string {
	fn = fn.Origin()
	pkg := fn.Pkg()
	if pkg == nil {
		return fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg.Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg.Path() + "." + fn.Name()
}

// addrTarget is one function that had its address taken (referenced
// outside call position), with the arity of the referencing expression so
// dynamic calls can be matched by shape.
type addrTarget struct {
	node     *CGNode
	params   int
	variadic bool
}

// BuildCallGraph builds the graph over the packages of one load. All
// packages must share a FileSet (LoadModule guarantees this).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byFn:  make(map[*types.Func]*CGNode),
		byLit: make(map[*ast.FuncLit]*CGNode),
	}

	// Pass 1: nodes for every declared function and every literal,
	// literals named after their innermost enclosing node.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					n := &CGNode{Fn: fn, Decl: d, Pkg: pkg, Body: d.Body, qname: funcQName(fn)}
					g.byFn[fn.Origin()] = n
					g.Nodes = append(g.Nodes, n)
					g.addLits(pkg, n, d.Body)
				case *ast.GenDecl:
					// Literals in package-level var initializers.
					g.addLits(pkg, nil, d)
				}
			}
		}
	}

	// Pass 2: address-taken functions and literals, in deterministic
	// order. A reference is address-taken when it is not the operand of a
	// call; literals count unless immediately invoked.
	var taken []addrTarget
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			collectAddrTaken(pkg, g, f, &taken)
		}
	}

	// Pass 3: concrete named types for conservative interface resolution.
	named := concreteNamedTypes(pkgs)

	// Pass 4: edges.
	for _, n := range g.Nodes {
		if n.Body != nil {
			addEdges(g, n, taken, named)
		}
	}
	return g
}

// addLits creates literal nodes under root, tracking nesting so each
// literal's qname reflects its creator.
func (g *CallGraph) addLits(pkg *Package, enclosing *CGNode, root ast.Node) {
	if root == nil {
		return
	}
	base := pkg.Path
	if enclosing != nil {
		base = enclosing.qname
	}
	counter := 0
	var walk func(n ast.Node, parent *CGNode)
	walk = func(n ast.Node, parent *CGNode) {
		walkChildren(n, func(c ast.Node) {
			if lit, ok := c.(*ast.FuncLit); ok {
				counter++
				name := base
				if parent != nil && parent.Lit != nil {
					name = parent.qname
				}
				node := &CGNode{
					Lit:   lit,
					Pkg:   pkg,
					Body:  lit.Body,
					qname: fmt.Sprintf("%s.func%d", name, counter),
				}
				g.byLit[lit] = node
				g.Nodes = append(g.Nodes, node)
				walk(lit.Body, node)
				return
			}
			walk(c, parent)
		})
	}
	walk(root, enclosing)
}

// collectAddrTaken appends every address-taken function reference of f.
func collectAddrTaken(pkg *Package, g *CallGraph, f *ast.File, taken *[]addrTarget) {
	callFun := make(map[ast.Expr]bool)
	handledSel := make(map[*ast.Ident]bool)
	add := func(e ast.Expr, node *CGNode) {
		if node == nil {
			return
		}
		sig, ok := pkg.Info.TypeOf(e).(*types.Signature)
		if !ok {
			return
		}
		*taken = append(*taken, addrTarget{node: node, params: sig.Params().Len(), variadic: sig.Variadic()})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// Children are visited after this node, so the mark is in
			// place before the operand is reached. Instantiation indexes
			// (g[T](x)) keep the inner identifier in call position too.
			fun := ast.Unparen(x.Fun)
			callFun[fun] = true
			switch ix := fun.(type) {
			case *ast.IndexExpr:
				callFun[ast.Unparen(ix.X)] = true
			case *ast.IndexListExpr:
				callFun[ast.Unparen(ix.X)] = true
			}
		case *ast.FuncLit:
			if !callFun[x] {
				add(x, g.byLit[x])
			}
		case *ast.SelectorExpr:
			handledSel[x.Sel] = true
			if callFun[x] {
				return true
			}
			if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
				add(x, g.NodeFor(fn))
			}
		case *ast.Ident:
			if handledSel[x] || callFun[x] {
				return true
			}
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
				add(x, g.NodeFor(fn))
			}
		}
		return true
	})
}

// concreteNamedTypes lists every non-interface, non-generic named type of
// the load, sorted for deterministic interface fan-out.
func concreteNamedTypes(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			out = append(out, named)
		}
	}
	return out
}

// addEdges walks one node's body (not descending into nested literals,
// which are their own nodes) and appends its call edges.
func addEdges(g *CallGraph, n *CGNode, taken []addrTarget, named []*types.Named) {
	var walk func(ast.Node)
	walk = func(node ast.Node) {
		walkChildren(node, func(c ast.Node) {
			if lit, ok := c.(*ast.FuncLit); ok {
				if to := g.byLit[lit]; to != nil {
					n.Out = append(n.Out, CGEdge{Kind: EdgeClosure, Site: lit.Pos(), To: to})
				}
				return // literal body is its own node
			}
			if call, ok := c.(*ast.CallExpr); ok {
				addCallEdges(g, n, call, taken, named)
			}
			walk(c)
		})
	}
	walk(n.Body)
}

// addCallEdges classifies one call expression and appends its edges.
func addCallEdges(g *CallGraph, n *CGNode, call *ast.CallExpr, taken []addrTarget, named []*types.Named) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Immediately-invoked literal: a plain static edge.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if to := g.byLit[lit]; to != nil {
			n.Out = append(n.Out, CGEdge{Kind: EdgeStatic, Site: call.Pos(), To: to})
		}
		return
	}
	// Conversions are not calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}
	// Unwrap explicit generic instantiation: f[T](x).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}

	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		if sel := info.Selections[f]; sel != nil && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if types.IsInterface(recv) {
				ifaceEdges(g, n, call, recv, sel.Obj().Name(), named)
				return
			}
			obj = sel.Obj()
		} else {
			obj = info.Uses[f.Sel]
		}
	default:
		// A call through an arbitrary function-valued expression
		// (field, slice element, map entry): dynamic.
		dynamicEdges(g, n, call, taken)
		return
	}

	switch o := obj.(type) {
	case *types.Builtin, nil:
		return
	case *types.Func:
		if to := g.NodeFor(o); to != nil {
			n.Out = append(n.Out, CGEdge{Kind: EdgeStatic, Site: call.Pos(), To: to})
		}
		return
	default:
		// A variable (parameter, local, field) of function type.
		dynamicEdges(g, n, call, taken)
	}
}

// ifaceEdges appends one EdgeIface per implementing type's method.
func ifaceEdges(g *CallGraph, n *CGNode, call *ast.CallExpr, recv types.Type, method string, named []*types.Named) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	seen := make(map[*CGNode]bool)
	for _, t := range named {
		if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, t.Obj().Pkg(), method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if to := g.NodeFor(fn); to != nil && !seen[to] {
			seen[to] = true
			n.Out = append(n.Out, CGEdge{Kind: EdgeIface, Site: call.Pos(), To: to})
		}
	}
}

// dynamicEdges appends one EdgeDynamic per address-taken target whose
// arity is compatible with the call.
func dynamicEdges(g *CallGraph, n *CGNode, call *ast.CallExpr, taken []addrTarget) {
	k := len(call.Args)
	spread := call.Ellipsis.IsValid()
	seen := make(map[*CGNode]bool)
	for _, t := range taken {
		ok := false
		switch {
		case t.variadic:
			ok = k >= t.params-1 || spread
		default:
			ok = k == t.params && !spread
		}
		if ok && !seen[t.node] {
			seen[t.node] = true
			n.Out = append(n.Out, CGEdge{Kind: EdgeDynamic, Site: call.Pos(), To: t.node})
		}
	}
}

// ReachResult is one reachability query's answer: the visited set plus,
// for each visited node, the edge it was first discovered through, so
// analyzers can print a concrete root-to-sink call chain.
type ReachResult struct {
	// Order is the BFS visit order (roots first).
	Order []*CGNode
	// Parent maps each visited non-root node to its discoverer.
	Parent map[*CGNode]*CGNode
	// Via maps each visited non-root node to the call site it was
	// discovered through.
	Via map[*CGNode]token.Pos
}

// Has reports whether n was reached.
func (r *ReachResult) Has(n *CGNode) bool {
	if r.Parent == nil {
		return false
	}
	_, ok := r.Parent[n]
	return ok
}

// Chain returns the discovery path root..n inclusive.
func (r *ReachResult) Chain(n *CGNode) []*CGNode {
	var rev []*CGNode
	for cur := n; cur != nil; cur = r.Parent[cur] {
		rev = append(rev, cur)
		if r.Parent[cur] == nil {
			break
		}
	}
	out := make([]*CGNode, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// ChainString renders the discovery path as "a -> b -> c".
func (r *ReachResult) ChainString(n *CGNode) string {
	parts := r.Chain(n)
	names := make([]string, len(parts))
	for i, p := range parts {
		names[i] = p.ShortName()
	}
	return strings.Join(names, " -> ")
}

// Reachable runs a deterministic BFS from roots. filter, when non-nil,
// decides per edge whether to traverse it; roots are always visited.
func (g *CallGraph) Reachable(roots []*CGNode, filter func(from *CGNode, e CGEdge) bool) *ReachResult {
	r := &ReachResult{
		Parent: make(map[*CGNode]*CGNode),
		Via:    make(map[*CGNode]token.Pos),
	}
	var queue []*CGNode
	for _, root := range roots {
		if root == nil || r.Has(root) {
			continue
		}
		r.Parent[root] = nil
		r.Order = append(r.Order, root)
		queue = append(queue, root)
	}
	// Roots map to nil parents; distinguish visited via presence in map.
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.Out {
			if filter != nil && !filter(cur, e) {
				continue
			}
			if _, seen := r.Parent[e.To]; seen {
				continue
			}
			r.Parent[e.To] = cur
			r.Via[e.To] = e.Site
			r.Order = append(r.Order, e.To)
			queue = append(queue, e.To)
		}
	}
	return r
}
