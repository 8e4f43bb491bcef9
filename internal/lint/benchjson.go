package lint

import (
	"go/ast"
	"go/types"
)

// BenchJSON forbids reflection-driven JSON marshaling on the BENCH write
// path. The perf gate's zero-noise guarantee rests on BENCH files being
// byte-identical for a fixed seed; encoding/json's marshal side walks
// structs (and maps, in randomized-by-spec-then-sorted but
// implementation-defined ways for some shapes) via reflection and has
// changed its output formatting across Go releases. Gated reports must go
// field by field through simtrace.Writer, whose byte layout is spelled out
// in this repo and covered by golden tests. The read path (Unmarshal,
// Decoder) is fine — parsing is not byte-layout-sensitive.
type BenchJSON struct {
	// Paths is the exact set of import paths on the BENCH write path.
	Paths map[string]bool
}

// BenchWritePathPackages are the packages that write artifacts — BENCH
// records, goldens, traces, breakdowns, postmortems — and therefore may not
// marshal through reflection: simtrace, whose Writer every artifact goes
// through, and every package that calls simtrace.NewWriter
// (TestBenchWritePathIsTheWritersCallers holds the list to that rule).
var BenchWritePathPackages = []string{
	"fpgapart/cluster",
	"fpgapart/cmd/perfbench",
	"fpgapart/internal/perfbench",
	"fpgapart/internal/reqtrace",
	"fpgapart/internal/simtrace",
	"fpgapart/partserver",
}

// DefaultBenchJSON returns the analyzer scoped to the BENCH write path.
func DefaultBenchJSON() *BenchJSON {
	paths := make(map[string]bool, len(BenchWritePathPackages))
	for _, p := range BenchWritePathPackages {
		paths[p] = true
	}
	return &BenchJSON{Paths: paths}
}

func (*BenchJSON) Name() string { return "bench-json" }

func (*BenchJSON) Doc() string {
	return "BENCH/golden write-path packages marshal field by field, never through encoding/json reflection"
}

// marshalFuncs are the encoding/json package-level entry points that
// serialize via reflection.
var marshalFuncs = map[string]bool{
	"Marshal": true, "MarshalIndent": true, "NewEncoder": true,
}

// Check implements Analyzer.
func (b *BenchJSON) Check(pkg *Package) []Finding {
	if !b.Paths[pkg.Path] {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := b.checkCall(pkg, call); f != nil {
				out = append(out, *f)
			}
			return true
		})
	}
	return out
}

func (b *BenchJSON) checkCall(pkg *Package, call *ast.CallExpr) *Finding {
	obj := pkg.objectOf(call.Fun)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return nil
	}
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// Methods: (*Encoder).Encode marshals; (*Decoder).Decode and the
		// rest of the read side do not.
		recv := sig.Recv().Type().String()
		if name == "Encode" && recv == "*encoding/json.Encoder" {
			f := pkg.findingNode(b.Name(), call,
				"json.Encoder.Encode marshals via reflection on the BENCH write path — gated reports must be written field by field through simtrace.Writer so the byte layout stays pinned")
			return &f
		}
		return nil
	}
	if marshalFuncs[name] {
		f := pkg.findingNode(b.Name(), call,
			"json.%s marshals via reflection on the BENCH write path — gated reports must be written field by field through simtrace.Writer so the byte layout stays pinned", name)
		return &f
	}
	return nil
}
