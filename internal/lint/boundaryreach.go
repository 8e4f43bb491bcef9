package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// BoundaryReach enforces the simulator-fault contract: invariant violations
// inside the simulator internals (internal/*) panic, and the public API
// packages must convert those panics into errors wrapping ErrSimulatorFault
// before they cross an exported function. The check is reachability over
// the whole-module call graph:
//
//   - a finding requires an actual panic SITE to be reachable, so exported
//     APIs that touch panic-free internal helpers need no guard;
//   - reachability crosses package boundaries (boundary pkg → sibling
//     helper pkg → internal/* panic, see
//     TestBoundaryReachCatchesWhatPanicBoundaryMisses) and module-interface
//     dispatch;
//   - a deferred recover guard wrapping the sentinel cuts the path wherever
//     it appears: an exported API calling an already-guarded exported API
//     (hashjoin → partition.Partition) is safe without its own guard;
//   - except across a `go` statement: recover only sees its own goroutine's
//     panics, so a goroutine a boundary package starts is a boundary of its
//     own, and its body needs its own deferred guard on any path to a panic
//     site, whatever guards the function that starts it.
type BoundaryReach struct {
	// Boundary is the set of public API packages the contract applies to.
	Boundary map[string]bool
	// InternalPrefix marks the panic-capable simulator packages.
	InternalPrefix string
	// Sentinel is the name of the wrapping sentinel error.
	Sentinel string
	// MaxHops caps the reported call-chain length in messages.
	MaxHops int
}

// DefaultBoundaryReach returns the analyzer for the project's public API
// surface.
func DefaultBoundaryReach() *BoundaryReach {
	return &BoundaryReach{
		Boundary: map[string]bool{
			"fpgapart/partition":  true,
			"fpgapart/distjoin":   true,
			"fpgapart/partserver": true,
			"fpgapart/hashjoin":   true,
			"fpgapart/cluster":    true,
		},
		InternalPrefix: "fpgapart/internal/",
		Sentinel:       "ErrSimulatorFault",
		MaxHops:        6,
	}
}

func (*BoundaryReach) Name() string { return "boundary-reach" }

func (*BoundaryReach) Doc() string {
	return "exported error-returning APIs that can reach an internal/* panic site carry a deferred ErrSimulatorFault recover guard"
}

// Check implements Analyzer; boundary-reach only runs at module scope.
func (*BoundaryReach) Check(*Package) []Finding { return nil }

// CheckModule implements ModuleAnalyzer.
func (b *BoundaryReach) CheckModule(mod *Module) []Finding {
	g := mod.Graph

	// Classify every declared function's deferred recover handling once;
	// guarded nodes cut reachability, guard functions are exempt targets.
	guards := map[*Node]guardState{}
	guardFns := map[*types.Func]bool{}
	for _, n := range g.Nodes() {
		if bodyRecovers(n.Pkg, n.Decl.Body) && mentionsName(n.Decl.Body, b.Sentinel) {
			guardFns[n.Fn] = true
		}
	}
	for _, n := range g.Nodes() {
		guards[n] = b.guardStateOf(n.Pkg, n.Decl.Body, guardFns)
	}

	var out []Finding
	for _, n := range g.Nodes() {
		if !b.Boundary[n.Pkg.Path] {
			continue
		}
		if !ast.IsExported(n.Fn.Name()) || !returnsError(n.Fn) {
			continue
		}
		if b.isInterfaceMethodDecl(n) {
			continue
		}
		if guardFns[n.Fn] || guards[n] == guarded {
			continue
		}
		if path, site := b.panicReach(g, n, guards, guardFns); site != nil {
			chain := b.chainString(n.String(), path)
			if guards[n] == recoverNoWrap {
				out = append(out, n.Pkg.findingNode(b.Name(), n.Decl.Name,
					"exported %s recovers simulator panics without wrapping %s (panic site reachable via %s) — callers must be able to errors.Is the fault",
					n.Fn.Name(), b.Sentinel, chain))
				continue
			}
			out = append(out, n.Pkg.findingNode(b.Name(), n.Decl.Name,
				"exported %s can reach a panic in %s via %s without an intervening deferred recover guard wrapping %s — a simulator invariant panic would escape the public API",
				n.Fn.Name(), site.PkgPath(), chain, b.Sentinel))
		}
	}
	for _, n := range g.Nodes() {
		if b.Boundary[n.Pkg.Path] {
			out = append(out, b.checkGoroutines(g, n, guards, guardFns)...)
		}
	}
	return out
}

// checkGoroutines flags every `go` statement in n's body whose spawned body
// can reach an internal/* panic site without a deferred guard of its own.
func (b *BoundaryReach) checkGoroutines(g *CallGraph, n *Node, guards map[*Node]guardState, guardFns map[*types.Func]bool) []Finding {
	var out []Finding
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		gs, ok := node.(*ast.GoStmt)
		if !ok {
			return true
		}
		body := g.spawned(n.Pkg, n.Fn, gs.Call)
		if body == nil {
			return true
		}
		start, guard := body.String(), guards[body]
		if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
			start, guard = "go func in "+n.String(), b.guardStateOf(n.Pkg, lit.Body, guardFns)
		}
		if guard == guarded {
			return true
		}
		if path, site := b.panicReach(g, body, guards, guardFns); site != nil {
			out = append(out, n.Pkg.findingNode(b.Name(), gs,
				"goroutine started in %s can reach a panic in %s via %s without a deferred recover guard of its own wrapping %s — recover in the function that starts it never sees another goroutine's panic",
				n.Fn.Name(), site.PkgPath(), b.chainString(start, path), b.Sentinel))
		}
		return true
	})
	return out
}

// panicReach walks the call graph from n and returns the first reachable
// internal/* panic site (with the edge path leading to it), skipping
// guarded functions and guard functions themselves. Deterministic: the walk
// follows edges in discovery order.
func (b *BoundaryReach) panicReach(g *CallGraph, start *Node, guards map[*Node]guardState, guardFns map[*types.Func]bool) (path []*Edge, site *Node) {
	cut := func(n *Node) bool {
		if n == start {
			return false
		}
		return guardFns[n.Fn] || guards[n] == guarded
	}
	g.Reach(start, nil, cut, func(p []*Edge, n *Node) bool {
		if n.HasPanic && strings.HasPrefix(n.PkgPath(), b.InternalPrefix) {
			path = append([]*Edge(nil), p...)
			site = n
			return false
		}
		return true
	})
	return path, site
}

// chainString renders the call chain start → … → panic site for the finding
// message, eliding middles beyond MaxHops.
func (b *BoundaryReach) chainString(start string, path []*Edge) string {
	names := []string{start}
	for _, e := range path {
		names = append(names, e.Callee.String())
	}
	max := b.MaxHops
	if max <= 0 {
		max = 6
	}
	if len(names) > max {
		head := names[:max-1]
		names = append(append([]string{}, head...), "…", names[len(names)-1])
	}
	return strings.Join(names, " → ")
}

// guardStateOf classifies the deferred recover handling of a function body
// in pkg: a deferred function literal that recovers and mentions the
// sentinel, or a deferred call to a guard function (package-local or
// imported).
func (b *BoundaryReach) guardStateOf(pkg *Package, body *ast.BlockStmt, guardFns map[*types.Func]bool) guardState {
	state := noGuard
	walkOwnStatements(body, func(node ast.Node) {
		ds, ok := node.(*ast.DeferStmt)
		if !ok {
			return
		}
		switch fn := ds.Call.Fun.(type) {
		case *ast.FuncLit:
			if bodyRecovers(pkg, fn.Body) {
				if mentionsName(fn.Body, b.Sentinel) {
					state = guarded
				} else if state == noGuard {
					state = recoverNoWrap
				}
			}
		default:
			if obj, ok := pkg.objectOf(ds.Call.Fun).(*types.Func); ok {
				if g := guardFns[obj.Origin()]; g {
					state = guarded
				}
			}
		}
	})
	return state
}

type guardState int

const (
	noGuard guardState = iota
	// recoverNoWrap: a deferred recover exists but never references the
	// sentinel — it would swallow the simulator fault instead of wrapping it.
	recoverNoWrap
	// guarded: a deferred recover wraps the sentinel.
	guarded
)

// walkOwnStatements visits the nodes of body without descending into nested
// function literals.
func walkOwnStatements(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			visit(n)
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// bodyRecovers reports whether body contains a call to the recover builtin.
func bodyRecovers(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && pkg.isRecoverCall(call) {
			found = true
		}
		return !found
	})
	return found
}

// mentionsName reports whether body contains an identifier with the given
// name (the sentinel may be package-local or a re-export, so matching by
// name is the robust check).
func mentionsName(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// returnsError reports whether the function's results include the error
// interface.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorInterface(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// isInterfaceMethodDecl reports whether n declares a method on an interface
// (impossible for FuncDecls, but kept for future engine reuse); it also
// filters methods whose receiver is itself an interface type.
func (b *BoundaryReach) isInterfaceMethodDecl(n *Node) bool {
	sig, ok := n.Fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}
