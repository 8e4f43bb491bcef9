package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// HotpathAlloc turns the repo's AllocsPerRun guards into a static contract.
// The dynamic guards (simtrace's TestHotPathDoesNotAllocate, the histogram
// nil-receiver test) prove a handful of entry points allocation-free at one
// Go version on one machine; this analyzer closes the same property over
// the whole call graph: every function reachable from a hot root may not
// contain a construct the compiler must heap-allocate per call. Hot roots
// are
//
//   - every module-declared Tick/Cycle method (the per-cycle edge of every
//     clocked component),
//   - a configured list of known hot entry points (the simtrace
//     instrumentation calls the AllocsPerRun tests cover),
//   - any function whose doc comment carries a //fpgavet:hotpath marker.
//
// Flagged constructs, each a guaranteed or near-guaranteed allocation:
//
//   - &T{…} and slice/map composite literals, make and new — heap objects
//     (make([]T,0,n) hoisted to construction time is the idiom; per-cycle
//     state must be preallocated);
//   - passing a concrete value to an interface parameter — interface boxing
//     allocates for any non-pointer-shaped value (the one panic-argument
//     exception: a panicking tick is already a simulator fault, its message
//     may box);
//   - any fmt call — fmt boxes every operand and walks reflection (again
//     excepting panic arguments, where fmt.Sprintf builds the fault text);
//   - function literals capturing enclosing variables — the closure header
//     is heap-allocated at creation;
//   - append to a slice that provably starts empty in this function
//     (var s []T, s := []T{}) — growth reallocates on the hot path; origins
//     this analyzer cannot see (fields, parameters) are trusted to be
//     presized at construction.
//
// One more construct is flagged that does not allocate but costs the same
// order per call — the simulator once spent half its host time in it:
//
//   - a receiver, parameter or result passed by value that is larger than
//     one cache line (MaxByValueBytes), or whose size is a type parameter's
//     and so unknown here — every call copies it; hot-path values over a
//     cache line move by reference.
//
// Like the rest of the engine this over-approximates reachability (a
// funcvalue edge may never be invoked) and under-approximates escape (a
// value struct literal that escapes via a pointer is not flagged); both
// limits are recorded in DESIGN.md §14.
type HotpathAlloc struct {
	// RootMethods marks every module method with one of these names hot.
	RootMethods map[string]bool
	// Roots are fully-qualified hot entry points, in the call-graph node
	// notation pkgpath.Func or pkgpath.Recv.Method.
	Roots map[string]bool
	// Marker is the doc-comment directive declaring a function hot.
	Marker string
}

// HotPathRoots are the known hot entry points outside Tick/Cycle methods:
// the simtrace instrumentation calls and the ring under the tracer and the
// reqtrace flight recorder, covered by the AllocsPerRun guards.
var HotPathRoots = []string{
	"fpgapart/internal/simtrace.Counter.Add",
	"fpgapart/internal/simtrace.Counter.Inc",
	"fpgapart/internal/simtrace.Gauge.Observe",
	"fpgapart/internal/simtrace.Histogram.Observe",
	"fpgapart/internal/simtrace.Tracer.Span",
	"fpgapart/internal/simtrace.Tracer.Instant",
	"fpgapart/internal/simtrace.Tracer.Sample",
	"fpgapart/internal/simtrace.Ring.Record",
}

// DefaultHotpathAlloc returns the analyzer with the project's hot roots.
func DefaultHotpathAlloc() *HotpathAlloc {
	roots := make(map[string]bool, len(HotPathRoots))
	for _, r := range HotPathRoots {
		roots[r] = true
	}
	return &HotpathAlloc{
		RootMethods: map[string]bool{"Tick": true, "Cycle": true},
		Roots:       roots,
		Marker:      "fpgavet:hotpath",
	}
}

func (*HotpathAlloc) Name() string { return "hotpath-alloc" }

func (*HotpathAlloc) Doc() string {
	return "functions reachable from Tick/Cycle methods, configured roots, or //fpgavet:hotpath markers contain no per-call heap allocations and move nothing over a cache line by value"
}

// Check implements Analyzer; hotpath-alloc only runs at module scope.
func (*HotpathAlloc) Check(*Package) []Finding { return nil }

// CheckModule implements ModuleAnalyzer.
func (h *HotpathAlloc) CheckModule(g *CallGraph) []Finding {

	// Hot set: roots plus everything reachable from them. rootOf remembers
	// the root that first pulled each function in, for the finding message.
	rootOf := map[*Node]*Node{}
	var hot []*Node
	for _, n := range g.Nodes() {
		if !h.isRoot(n) {
			continue
		}
		g.Reach(n, nil, nil, func(_ []*Edge, m *Node) bool {
			if m.Decl == nil || m.Pkg == nil {
				return true // bodyless leaf: nothing to check below it either
			}
			if _, seen := rootOf[m]; !seen {
				rootOf[m] = n
				hot = append(hot, m)
			}
			return true
		})
	}

	var out []Finding
	for _, n := range hot {
		out = append(out, h.checkHot(n, rootOf[n])...)
	}
	return out
}

// isRoot reports whether n is a hot root by method name, configured name,
// or doc-comment marker.
func (h *HotpathAlloc) isRoot(n *Node) bool {
	if n.Decl == nil || n.Pkg == nil {
		return false
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && h.RootMethods[n.Fn.Name()] {
		return true
	}
	if h.Roots[n.String()] {
		return true
	}
	if n.Decl.Doc != nil && h.Marker != "" {
		for _, c := range n.Decl.Doc.List {
			if strings.Contains(c.Text, h.Marker) {
				return true
			}
		}
	}
	return false
}

// MaxByValueBytes is the largest value a hot function may take or return by
// value: one cache line.
const MaxByValueBytes = 64

var gcSizes = types.SizesFor("gc", "amd64")

// checkSignature flags receivers, parameters and results a hot function
// moves by value although they exceed a cache line.
func (h *HotpathAlloc) checkSignature(n *Node, ctx string) []Finding {
	var out []Finding
	ft := n.Decl.Type
	for _, fl := range []*ast.FieldList{n.Decl.Recv, ft.Params, ft.Results} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			t := n.Pkg.Info.TypeOf(field.Type)
			if t == nil {
				continue
			}
			size := "a type parameter's size"
			if !hasTypeParam(t) {
				bytes := gcSizes.Sizeof(t)
				if bytes <= MaxByValueBytes {
					continue
				}
				size = strconv.FormatInt(bytes, 10) + " bytes"
			}
			out = append(out, n.Pkg.findingNode(h.Name(), field,
				"%s %s moves a %s (%s) by value — every call copies it; pass a pointer",
				n.String(), ctx, typeString(t), size))
		}
	}
	return out
}

// hasTypeParam reports whether t's size depends on a type parameter.
// Pointers, slices, maps, channels, functions and interfaces have a fixed
// size whatever they refer to.
func hasTypeParam(t types.Type) bool {
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if hasTypeParam(t.TypeArgs().At(i)) {
				return true
			}
		}
	case *types.Array:
		return hasTypeParam(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if hasTypeParam(t.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// checkHot scans one hot function's signature and body for by-value moves
// and allocating constructs.
func (h *HotpathAlloc) checkHot(n *Node, root *Node) []Finding {
	pkg := n.Pkg
	ctx := "on the hot path from " + root.String()
	if root == n {
		ctx = "a hot-path root"
	}

	// Panic arguments are exempt everywhere: a panicking tick is already a
	// simulator fault, so its message may allocate freely.
	var panicArgs []ast.Expr
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok && pkg.isPanicCall(call) {
			panicArgs = append(panicArgs, call.Args...)
		}
		return true
	})
	exempt := func(node ast.Node) bool {
		if node == nil {
			return false
		}
		for _, a := range panicArgs {
			if node.Pos() >= a.Pos() && node.End() <= a.End() {
				return true
			}
		}
		return false
	}

	emptySlices := h.emptySliceVars(n)

	out := h.checkSignature(n, ctx)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if exempt(node) {
			return false
		}
		switch node := node.(type) {
		case *ast.UnaryExpr:
			if lit, ok := node.X.(*ast.CompositeLit); ok {
				out = append(out, pkg.findingNode(h.Name(), node,
					"%s %s takes the address of a composite literal (heap allocation per call) — preallocate the %s at construction time",
					n.String(), ctx, typeString(pkg.Info.TypeOf(lit))))
				return false
			}
		case *ast.CompositeLit:
			t := pkg.Info.TypeOf(node)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					out = append(out, pkg.findingNode(h.Name(), node,
						"%s %s builds a %s literal (heap allocation per call) — preallocate at construction time",
						n.String(), ctx, typeString(t)))
					return false
				}
			}
		case *ast.FuncLit:
			if captured := capturedVars(pkg, node); len(captured) > 0 {
				out = append(out, pkg.findingNode(h.Name(), node,
					"%s %s creates a closure capturing %s (heap-allocated closure header per call) — hoist the state into the receiver or pass it as arguments",
					n.String(), ctx, strings.Join(captured, ", ")))
			}
		case *ast.CallExpr:
			out = append(out, h.checkCall(pkg, n, node, ctx, emptySlices)...)
		}
		return true
	})
	return out
}

// checkCall flags make/new, fmt calls, interface boxing at arguments, and
// append to provably-empty local slices.
func (h *HotpathAlloc) checkCall(pkg *Package, n *Node, call *ast.CallExpr, ctx string, emptySlices map[*types.Var]bool) []Finding {
	var out []Finding

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				f := pkg.findingNode(h.Name(), call,
					"%s %s calls %s (heap allocation per call) — allocate at construction time and reuse",
					n.String(), ctx, b.Name())
				return []Finding{f}
			case "append":
				if len(call.Args) > 0 {
					if target, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
						if v, ok := pkg.Info.Uses[target].(*types.Var); ok && emptySlices[v] {
							f := pkg.findingNode(h.Name(), call,
								"%s %s appends to %s, which starts empty in this function — every growth reallocates; presize with make(…, 0, n) at construction",
								n.String(), ctx, target.Name)
							return []Finding{f}
						}
					}
				}
				return nil
			default:
				return nil
			}
		}
	}

	// fmt on the hot path boxes every operand and walks reflection.
	if fn, ok := pkg.objectOf(call.Fun).(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		f := pkg.findingNode(h.Name(), call,
			"%s %s calls fmt.%s — fmt boxes every operand and allocates; format off the hot path or record raw values",
			n.String(), ctx, fn.Name())
		return []Finding{f}
	}

	// Interface boxing: a concrete argument passed to an interface
	// parameter allocates for any value the runtime cannot pack inline.
	sig, ok := pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return out // conversion or builtin, handled above
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := pkg.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue // interface-to-interface: no new box
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		out = append(out, pkg.findingNode(h.Name(), arg,
			"%s %s boxes %s into interface %s (heap allocation per call) — keep hot-path signatures concrete",
			n.String(), ctx, typeString(at), typeString(pt)))
	}
	// Variadic interface calls with no args beyond the fixed ones, and
	// sites that only box via conversion in returns, are out of scope.
	return out
}

// emptySliceVars collects local slice variables that provably start empty:
// declared `var s []T` with no initializer, or `s := []T{}`.
func (h *HotpathAlloc) emptySliceVars(n *Node) map[*types.Var]bool {
	pkg := n.Pkg
	out := map[*types.Var]bool{}
	mark := func(id *ast.Ident) {
		if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				out[v] = true
			}
		}
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.DeclStmt:
			gd, ok := node.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if node.Tok.String() != ":=" || len(node.Lhs) != len(node.Rhs) {
				return true
			}
			for i, lhs := range node.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if lit, ok := ast.Unparen(node.Rhs[i]).(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
					if t := pkg.Info.TypeOf(lit); t != nil {
						if _, isSlice := t.Underlying().(*types.Slice); isSlice {
							mark(id)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// capturedVars lists (sorted by first use) the enclosing-scope variables a
// function literal captures. Package-level variables and the literal's own
// parameters and locals do not count.
func capturedVars(pkg *Package, fl *ast.FuncLit) []string {
	seen := map[*types.Var]bool{}
	var names []string
	ast.Inspect(fl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		if v.Pkg() != pkg.Types {
			return true
		}
		// Package-level variables live in the package scope — not captures.
		if v.Parent() == pkg.Types.Scope() {
			return true
		}
		// Declared inside the literal (params or locals): not a capture.
		if v.Pos() >= fl.Pos() && v.Pos() <= fl.End() {
			return true
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}
