// Package lint is fpgavet's analysis engine: a small, stdlib-only
// (go/parser + go/ast + go/types) static-analysis framework plus the
// project's analyzers. The analyzers machine-check the invariants this
// reproduction depends on but the compiler cannot see:
//
//   - determinism — the cycle simulator and the fault-tolerant exchange must
//     be bit-for-bit reproducible, so packages on the deterministic path may
//     not read the wall clock, draw from the unseeded global math/rand
//     source, or range over maps (Go randomizes map iteration order; the
//     multiset-checksum comparisons in partition/distjoin would still pass
//     while per-run traces, counters and timings silently diverge).
//   - boundary-reach — invariant violations inside internal/* panic; an
//     exported error-returning API of a public package that can reach such
//     a panic site, across any number of calls, must convert it into an
//     error wrapping ErrSimulatorFault.
//   - error-hygiene — errors crossing package boundaries are wrapped with %w
//     and tested with errors.Is, never matched as strings.
//   - bench-json — packages that write gated BENCH/golden reports must emit
//     them through the simtrace field-by-field writers; encoding/json's
//     reflective marshal side is banned there so the byte layout (and with
//     it the zero-noise perf gate) stays pinned.
//
// A finding can be suppressed by an explicit escape hatch — a comment of the
// form
//
//	//fpgavet:allow <analyzer>[,<analyzer>...] [reason]
//
// (or //fpgavet:allow * for every analyzer) placed on the offending line or
// on the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos token.Position
	// End is the position just past the offending node, when known. It lets
	// the //fpgavet:allow escape hatch match any line a multi-line statement
	// spans, not just the first. A zero End means the finding covers only
	// Pos's line.
	End      token.Position
	Analyzer string
	Message  string
}

// String formats the finding the way compilers and terminals expect
// (file:line:col, clickable in most terminal emulators).
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Package is one type-checked package under analysis.
type Package struct {
	// Path is the import path (e.g. fpgapart/internal/core). Fixture
	// packages in tests may carry a synthetic path to opt into path-scoped
	// analyzers.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one checkable rule set.
type Analyzer interface {
	// Name is the analyzer's short identifier, used in output and in
	// //fpgavet:allow comments.
	Name() string
	// Doc is a one-line description, shown by `fpgavet -list`.
	Doc() string
	// Check returns the analyzer's findings for pkg. Implementations do not
	// apply allow-comment suppression; Run does.
	Check(pkg *Package) []Finding
}

// Module bundles the whole loaded package set with the call graph built
// over it — the input to module-level analyzers.
type Module struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// ModuleAnalyzer is an analyzer that needs the whole module at once (the
// call-graph analyzers). Its Check method is never called; Run
// invokes CheckModule exactly once over all packages.
type ModuleAnalyzer interface {
	Analyzer
	CheckModule(mod *Module) []Finding
}

// All returns the project's full analyzer set with default configuration:
// determinism, boundary-reach, error-hygiene, bench-json and hotpath-alloc.
func All() []Analyzer {
	return []Analyzer{
		DefaultDeterminism(),
		DefaultBoundaryReach(),
		NewErrHygiene(),
		DefaultBenchJSON(),
		DefaultHotpathAlloc(),
	}
}

// Run applies every analyzer to every package (module analyzers once over
// the whole set), drops suppressed findings, and returns the rest sorted by
// position.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	allowed := allows{}
	for _, pkg := range pkgs {
		allowed.merge(allowTable(pkg))
	}

	var mod *Module
	module := func() *Module {
		if mod == nil {
			mod = &Module{Pkgs: pkgs, Graph: BuildCallGraph(pkgs)}
		}
		return mod
	}

	var out []Finding
	for _, a := range analyzers {
		if ma, ok := a.(ModuleAnalyzer); ok {
			for _, f := range ma.CheckModule(module()) {
				if allowed.allows(f) {
					continue
				}
				out = append(out, f)
			}
			continue
		}
		for _, pkg := range pkgs {
			for _, f := range a.Check(pkg) {
				if allowed.allows(f) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// allowMarker is the escape-hatch comment prefix.
const allowMarker = "fpgavet:allow"

// allows maps filename → line → set of allowed analyzer names ("*" = all).
type allows map[string]map[int]map[string]bool

// allows reports whether a marker suppresses f. A marker matches on the
// line above the finding or on ANY line the offending node spans (Pos.Line
// through End.Line) — multi-line statements accept the marker on their
// closing line, where gofmt tends to leave room for it.
func (t allows) allows(f Finding) bool {
	lines := t[f.Pos.Filename]
	if lines == nil {
		return false
	}
	last := f.End.Line
	if f.End.Filename != f.Pos.Filename || last < f.Pos.Line {
		last = f.Pos.Line
	}
	for line := f.Pos.Line - 1; line <= last; line++ {
		if set := lines[line]; set != nil && (set["*"] || set[f.Analyzer]) {
			return true
		}
	}
	return false
}

// merge folds another table into t.
func (t allows) merge(o allows) {
	for file, lines := range o {
		if t[file] == nil {
			t[file] = lines
			continue
		}
		for line, set := range lines {
			if t[file][line] == nil {
				t[file][line] = set
				continue
			}
			for name := range set {
				t[file][line][name] = true
			}
		}
	}
}

// allowTable collects every //fpgavet:allow comment in the package.
func allowTable(pkg *Package) allows {
	t := allows{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowMarker) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowMarker))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := t[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					t[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = map[string]bool{}
					lines[pos.Line] = set
				}
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						set[name] = true
					}
				}
			}
		}
	}
	return t
}

// finding builds a Finding at a node's position.
func (pkg *Package) finding(analyzer string, pos token.Pos, format string, args ...interface{}) Finding {
	return Finding{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// findingNode builds a Finding spanning a whole node, so //fpgavet:allow
// markers match any line of a multi-line statement.
func (pkg *Package) findingNode(analyzer string, n ast.Node, format string, args ...interface{}) Finding {
	f := pkg.finding(analyzer, n.Pos(), format, args...)
	f.End = pkg.Fset.Position(n.End())
	return f
}

// objectOf resolves the object a call expression's function refers to, for
// plain identifiers (local calls) and selector expressions (pkg.Func,
// recv.Method). It returns nil for anonymous functions, conversions to
// unnamed types, and other unresolvable callees.
func (pkg *Package) objectOf(fun ast.Expr) types.Object {
	switch fn := fun.(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fn]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fn.Sel]
	case *ast.ParenExpr:
		return pkg.objectOf(fn.X)
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return pkg.objectOf(fn.X)
	case *ast.IndexListExpr:
		return pkg.objectOf(fn.X)
	}
	return nil
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t's value satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType)
}

// isErrorInterface reports whether t is exactly the error interface type.
func isErrorInterface(t types.Type) bool {
	return t != nil && types.Identical(t, errorType.Underlying()) ||
		t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isRecoverCall reports whether call invokes the recover builtin.
func (pkg *Package) isRecoverCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pkg.Info.Uses[id]
	b, ok := obj.(*types.Builtin)
	return ok && b.Name() == "recover"
}
