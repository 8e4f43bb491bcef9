package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the whole-module half of the analysis engine: a type-driven
// call graph over every loaded package. The per-function analyzers of PR 2
// saw one package at a time and closed facts only over package-local calls;
// the graph built here lets analyzers ask reachability questions across the
// entire module — "can this exported API reach a panic site in internal/*?",
// "is this function on a Tick-rooted hot path?" — which is what turns the
// dynamically-checked determinism and allocation contracts into static ones.
//
// Three edge kinds are tracked:
//
//   - static: a direct call of a named function or a method on a concrete
//     receiver. Always sound.
//   - interface: a call through a method of an interface DECLARED IN THIS
//     MODULE (platform curves, simtrace probe hooks,
//     joincore.Partitions, …), resolved to every module type whose method
//     set satisfies the interface. Dynamic dispatch through foreign
//     interfaces (io.Writer, error, sort.Interface) is NOT resolved — those
//     callees are treated as leaves, a deliberate soundness limit recorded
//     in DESIGN.md §14.
//   - funcvalue: a reference to a same-package function as a value (stored
//     in a variable, passed as a callback). The reference site is treated
//     as a possible call, over-approximating when the value is only invoked
//     elsewhere; cross-package function values are not tracked.
//
// Function literals are inlined into their enclosing declaration: a call
// inside a closure counts as a call by the function that created the
// closure. That over-approximates (the literal may never run) in exactly
// the direction reachability analyzers want. A literal a `go` statement
// starts runs on its own goroutine, where no recover of its creator reaches;
// spawned gives it a node of its own for analyzers that care.

// EdgeKind classifies how a call edge was discovered.
type EdgeKind int

const (
	// EdgeStatic is a direct call of a named function or concrete method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a dynamic call resolved through a module-declared
	// interface's method set.
	EdgeInterface
	// EdgeFuncValue is a same-package function referenced as a value.
	EdgeFuncValue
)

// Edge is one possible call.
type Edge struct {
	Callee *Node
	// Site is the call expression (or value reference) position.
	Site token.Pos
	Kind EdgeKind
}

// Node is one function in the graph. Functions whose bodies were not loaded
// (standard library, interface method declarations) appear as leaves with a
// nil Decl.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl // nil when the body is outside the loaded set
	Pkg  *Package      // defining package when loaded, else nil
	Out  []*Edge
	// HasPanic marks a body containing a direct call of the panic builtin.
	HasPanic bool
}

// PkgPath returns the import path of the node's defining package ("" for
// builtins and universe functions).
func (n *Node) PkgPath() string {
	if n.Fn.Pkg() == nil {
		return ""
	}
	return n.Fn.Pkg().Path()
}

// String renders the node as pkgpath.Func or pkgpath.(Recv).Method, the
// form used in finding messages and call-chain traces.
func (n *Node) String() string {
	fn := n.Fn
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() == nil {
		return name
	}
	return fn.Pkg().Path() + "." + name
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	nodes map[*types.Func]*Node
	// order lists nodes with declarations in deterministic (package, file,
	// declaration) order, so analyzer output is stable run to run.
	order []*Node
	// moduleTypes are the named non-interface types declared across the
	// loaded packages, in deterministic order — the candidate set for
	// interface method resolution.
	moduleTypes []*types.Named
	// implCache memoizes interface-method → implementations resolution.
	implCache map[*types.Func][]*types.Func
	// modulePrefix scopes which interfaces are resolved ("fpgapart").
	modulePrefix string
}

// Nodes returns every node with a loaded body, in deterministic order.
func (g *CallGraph) Nodes() []*Node { return g.order }

// BuildCallGraph builds the graph over the given packages. The module
// prefix (derived from the first package's path) scopes interface
// resolution to module-declared interfaces.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:     map[*types.Func]*Node{},
		implCache: map[*types.Func][]*types.Func{},
	}
	if len(pkgs) > 0 {
		if i := strings.IndexByte(pkgs[0].Path, '/'); i > 0 {
			g.modulePrefix = pkgs[0].Path[:i]
		} else {
			g.modulePrefix = pkgs[0].Path
		}
	}

	// Pass 1: index every declared function and named type.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Fn: fn, Decl: fd, Pkg: pkg}
				g.nodes[fn] = n
				g.order = append(g.order, n)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named.Underlying()) {
				continue
			}
			g.moduleTypes = append(g.moduleTypes, named)
		}
	}

	// Pass 2: edges.
	for _, n := range g.order {
		g.addEdges(n, n.Decl)
	}
	return g
}

// spawned returns the node of the function that the `go` statement call,
// in fn's body in pkg, starts: for `go func() {…}()` a node of the literal's
// own calls, which no edge leads to; the callee's node for a named function
// or method with a loaded body; nil for anything else (a function value, a
// body outside the loaded set).
func (g *CallGraph) spawned(pkg *Package, fn *types.Func, call *ast.CallExpr) *Node {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		n := &Node{Fn: fn, Pkg: pkg}
		g.addEdges(n, lit.Body)
		return n
	}
	callee, ok := pkg.objectOf(call.Fun).(*types.Func)
	if !ok {
		return nil
	}
	if n := g.nodes[callee.Origin()]; n != nil && n.Decl != nil {
		return n
	}
	return nil
}

// leaf returns (creating on demand) the bodyless node for an out-of-module
// or undeclared function.
func (g *CallGraph) leaf(fn *types.Func) *Node {
	fn = fn.Origin()
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	n := &Node{Fn: fn}
	g.nodes[fn] = n
	return n
}

// addEdges walks root, n's declaration or a literal in it (function literals
// inlined), and records call, interface-dispatch and function-value edges.
func (g *CallGraph) addEdges(n *Node, root ast.Node) {
	pkg := n.Pkg
	// calleeIdents marks identifiers that ARE the function of a call
	// expression, so pass 2 can tell value references from call sites.
	calleeIdents := map[*ast.Ident]bool{}
	ast.Inspect(root, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id := calleeIdent(call.Fun); id != nil {
			calleeIdents[id] = true
		}
		if pkg.isPanicCall(call) {
			n.HasPanic = true
			return true
		}
		obj := pkg.objectOf(call.Fun)
		fn, ok := obj.(*types.Func)
		if !ok {
			return true
		}
		fn = fn.Origin()
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			// Dynamic dispatch: resolve through module interfaces only.
			for _, impl := range g.implementations(fn) {
				n.link(g.leaf(impl), call.Pos(), EdgeInterface)
			}
			// Keep the interface method itself as a leaf so the edge is
			// visible even when no module implementation exists.
			n.link(g.leaf(fn), call.Pos(), EdgeInterface)
			return true
		}
		n.link(g.leaf(fn), call.Pos(), EdgeStatic)
		return true
	})

	// Pass 2 over identifiers: same-package functions referenced as values.
	ast.Inspect(root, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || calleeIdents[id] {
			return true
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		fn = fn.Origin()
		if fn.Pkg() != pkg.Types {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			return true
		}
		n.link(g.leaf(fn), id.Pos(), EdgeFuncValue)
		return true
	})
}

// link appends an edge, deduplicating repeat (callee, kind) pairs to keep
// the graph small on hot call sites.
func (n *Node) link(callee *Node, site token.Pos, kind EdgeKind) {
	for _, e := range n.Out {
		if e.Callee == callee && e.Kind == kind {
			return
		}
	}
	n.Out = append(n.Out, &Edge{Callee: callee, Site: site, Kind: kind})
}

// calleeIdent returns the identifier naming the called function, unwrapping
// selectors, parens and generic instantiation.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch fn := fun.(type) {
	case *ast.Ident:
		return fn
	case *ast.SelectorExpr:
		return fn.Sel
	case *ast.ParenExpr:
		return calleeIdent(fn.X)
	case *ast.IndexExpr:
		return calleeIdent(fn.X)
	case *ast.IndexListExpr:
		return calleeIdent(fn.X)
	}
	return nil
}

// implementations resolves an interface method to the matching methods of
// every module type whose method set satisfies the interface. Only
// module-declared interfaces are resolved; foreign interfaces return nil.
func (g *CallGraph) implementations(ifaceMethod *types.Func) []*types.Func {
	if impls, ok := g.implCache[ifaceMethod]; ok {
		return impls
	}
	var impls []*types.Func
	defer func() { g.implCache[ifaceMethod] = impls }()

	if ifaceMethod.Pkg() == nil || !g.inModule(ifaceMethod.Pkg().Path()) {
		return impls
	}
	sig := ifaceMethod.Type().(*types.Signature)
	recv := sig.Recv().Type()
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return impls
	}
	for _, named := range g.moduleTypes {
		var impl types.Type = named
		if !types.Implements(named, iface) {
			ptr := types.NewPointer(named)
			if !types.Implements(ptr, iface) {
				continue
			}
			impl = ptr
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, ifaceMethod.Pkg(), ifaceMethod.Name())
		if m, ok := obj.(*types.Func); ok {
			impls = append(impls, m.Origin())
		}
	}
	return impls
}

// inModule reports whether path belongs to the analyzed module.
func (g *CallGraph) inModule(path string) bool {
	return path == g.modulePrefix || strings.HasPrefix(path, g.modulePrefix+"/")
}

// isPanicCall reports whether call invokes the panic builtin.
func (pkg *Package) isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// Reach walks the graph from start, visiting every node reachable through
// edges whose kinds are in follow, skipping nodes for which cut returns
// true (the cut node itself is not visited). Visit order is deterministic.
// visit returning false stops the whole walk.
func (g *CallGraph) Reach(start *Node, follow func(*Edge) bool, cut func(*Node) bool, visit func(path []*Edge, n *Node) bool) {
	seen := map[*Node]bool{}
	var path []*Edge
	var dfs func(n *Node) bool
	dfs = func(n *Node) bool {
		if seen[n] {
			return true
		}
		seen[n] = true
		if cut != nil && cut(n) {
			return true
		}
		if !visit(path, n) {
			return false
		}
		for _, e := range n.Out {
			if follow != nil && !follow(e) {
				continue
			}
			path = append(path, e)
			ok := dfs(e.Callee)
			path = path[:len(path)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	dfs(start)
}
