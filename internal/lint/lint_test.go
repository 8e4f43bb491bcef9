package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fpgapart/experiments"
)

// sharedLoader caches one loader (and its type-checked standard library)
// across all tests; fixture packages get synthetic import paths so they can
// never collide with real module packages.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("building loader: %v", loaderErr)
	}
	return loader
}

// loadFixture type-checks testdata/src/<dir> under a synthetic import path.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	return loadFixtureAs(t, "fpgapart/fixture/"+dir, dir)
}

// loadFixtureAs type-checks testdata/src/<dir> under an explicit synthetic
// import path (memoized, so fixtures can import each other: pre-load the
// dependency, then load the importer — the loader resolves the path from
// its cache).
func loadFixtureAs(t *testing.T, path, dir string) *Package {
	t.Helper()
	l := testLoader(t)
	if pkg, ok := l.pkgs[path]; ok {
		return pkg
	}
	file, err := filepath.Abs(filepath.Join("testdata", "src", dir, dir+".go"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckFiles(path, []string{file})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg
}

// loadBoundaryFixtures loads the boundary-reach fixture chain in dependency
// order: the synthetic internal package, the sibling helper, the boundary.
func loadBoundaryFixtures(t *testing.T) (pkgs []*Package, boundfix *Package) {
	t.Helper()
	internal := loadFixtureAs(t, "fpgapart/internal/fixpanic", "fixpanic")
	helper := loadFixture(t, "boundhelper")
	boundfix = loadFixture(t, "boundfix")
	return []*Package{internal, helper, boundfix}, boundfix
}

// expectations parses the fixture's `// want a b c` markers into a set of
// "line analyzer" keys.
func expectations(t *testing.T, pkg *Package, analyzers map[string]bool) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Fields(strings.TrimPrefix(text, "want ")) {
					if analyzers[name] {
						want[fmt.Sprintf("%s:%d %s", filepath.Base(pos.Filename), pos.Line, name)] = true
					}
				}
			}
		}
	}
	return want
}

// checkFixture runs the analyzers over the fixture and compares the found
// (line, analyzer) pairs against the `// want` markers, both directions.
func checkFixture(t *testing.T, pkg *Package, analyzers []Analyzer) []Finding {
	t.Helper()
	return checkFixtureModule(t, []*Package{pkg}, analyzers)
}

// checkFixtureModule is checkFixture over a multi-package fixture set:
// `// want` markers are collected from every package, and module analyzers
// see the whole set at once.
func checkFixtureModule(t *testing.T, pkgs []*Package, analyzers []Analyzer) []Finding {
	t.Helper()
	names := map[string]bool{}
	for _, a := range analyzers {
		names[a.Name()] = true
	}
	want := map[string]bool{}
	for _, pkg := range pkgs {
		for key := range expectations(t, pkg, names) {
			want[key] = true
		}
	}
	findings := Run(pkgs, analyzers)

	got := map[string]bool{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer)] = true
	}
	for key := range want {
		if !got[key] {
			t.Errorf("expected finding at %s, got none", key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected finding at %s", key)
		}
	}
	if t.Failed() {
		for _, f := range findings {
			t.Logf("finding: %v", f)
		}
	}
	return findings
}

func TestDeterminismFixture(t *testing.T) {
	pkg := loadFixture(t, "determfix")
	det := &Determinism{Paths: map[string]bool{pkg.Path: true}}
	findings := checkFixture(t, pkg, []Analyzer{det})

	// The acceptance-named seeded violations must be among the catches: a
	// wall-clock read inside a ticked component and an unsorted map range in
	// a checksum path.
	assertFinding(t, findings, "determinism", "time.Now")
	assertFinding(t, findings, "determinism", "range over map")
	assertFinding(t, findings, "determinism", "rand.")
}

func TestDeterminismIgnoresOffPathPackages(t *testing.T) {
	pkg := loadFixture(t, "determfix")
	det := &Determinism{Paths: map[string]bool{"fpgapart/experiments": true}}
	if findings := det.Check(pkg); len(findings) != 0 {
		t.Errorf("off-path package flagged: %v", findings)
	}
}

// TestMembudgetFixture pins the memory-budget accounting to the determinism
// contract: internal/membudget joined the deterministic path in the
// budgeted-join work, and this known-bad twin shows the analyzer catches a
// wall-clock high-water stamp, map-ordered spill victims, and randomized
// admission.
func TestMembudgetFixture(t *testing.T) {
	pkg := loadFixture(t, "membudgetfix")
	det := &Determinism{Paths: map[string]bool{pkg.Path: true}}
	findings := checkFixture(t, pkg, []Analyzer{det})
	assertFinding(t, findings, "determinism", "time.Now")
	assertFinding(t, findings, "determinism", "range over map")
	assertFinding(t, findings, "determinism", "rand.")
	if len(findings) < 3 {
		t.Fatalf("determinism caught %d violations in the membudget fixture, want ≥ 3", len(findings))
	}
}

// TestBudgetPackagesCovered pins the list membership the budgeted join
// relies on: membudget is on the deterministic path, and hashjoin — whose
// exported joins now reach internal/* budget machinery — is a
// boundary-reach package.
func TestBudgetPackagesCovered(t *testing.T) {
	onPath := false
	for _, p := range DeterministicPathPackages {
		if p == "fpgapart/internal/membudget" {
			onPath = true
		}
	}
	if !onPath {
		t.Error("fpgapart/internal/membudget missing from DeterministicPathPackages")
	}
	if !DefaultBoundaryReach().Boundary["fpgapart/hashjoin"] {
		t.Error("fpgapart/hashjoin missing from the boundary-reach set")
	}
}

func TestErrHygieneFixture(t *testing.T) {
	pkg := loadFixture(t, "errfix")
	findings := checkFixture(t, pkg, []Analyzer{NewErrHygiene()})
	assertFinding(t, findings, "error-hygiene", "%w")
	assertFinding(t, findings, "error-hygiene", "errors.Is")
	if len(findings) < 2 {
		t.Fatalf("error-hygiene caught %d violations, want ≥ 2", len(findings))
	}
}

func TestBenchJSONFixture(t *testing.T) {
	pkg := loadFixture(t, "benchfix")
	bj := &BenchJSON{Paths: map[string]bool{pkg.Path: true}}
	findings := checkFixture(t, pkg, []Analyzer{bj})
	assertFinding(t, findings, "bench-json", "json.Marshal")
	assertFinding(t, findings, "bench-json", "json.NewEncoder")
	assertFinding(t, findings, "bench-json", "Encoder.Encode")
	if len(findings) < 4 {
		t.Fatalf("bench-json caught %d violations, want ≥ 4", len(findings))
	}
}

func TestBenchJSONIgnoresOffPathPackages(t *testing.T) {
	pkg := loadFixture(t, "benchfix")
	bj := &BenchJSON{Paths: map[string]bool{"fpgapart/experiments": true}}
	if findings := bj.Check(pkg); len(findings) != 0 {
		t.Errorf("off-path package flagged: %v", findings)
	}
}

// TestBenchWritePathIsTheWritersCallers derives the bench-json scope from
// the code: every package with a non-test call to simtrace.NewWriter writes
// an artifact and is on BenchWritePathPackages, and every entry has such a
// call or is simtrace itself.
func TestBenchWritePathIsTheWritersCallers(t *testing.T) {
	const simtracePath = "fpgapart/internal/simtrace"
	pkgs, err := testLoader(t).LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	callers := map[string]bool{simtracePath: true}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn, ok := pkg.objectOf(call.Fun).(*types.Func); ok && fn.FullName() == simtracePath+".NewWriter" {
						callers[pkg.Path] = true
					}
				}
				return true
			})
		}
	}
	if len(callers) < 2 {
		t.Fatal("no package of the module calls simtrace.NewWriter")
	}
	listed := map[string]bool{}
	for _, p := range BenchWritePathPackages {
		listed[p] = true
		if !callers[p] {
			t.Errorf("BenchWritePathPackages lists %s, which never calls simtrace.NewWriter", p)
		}
	}
	for p := range callers {
		if !listed[p] {
			t.Errorf("%s calls simtrace.NewWriter but is missing from BenchWritePathPackages", p)
		}
	}
}

func assertFinding(t *testing.T, findings []Finding, analyzer, fragment string) {
	t.Helper()
	for _, f := range findings {
		if f.Analyzer == analyzer && strings.Contains(f.Message, fragment) {
			return
		}
	}
	t.Errorf("no %s finding mentioning %q", analyzer, fragment)
}

// TestModuleIsClean is the `make lint` gate as a unit test: the real tree
// must be violation-free under the full default analyzer set.
func TestModuleIsClean(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("only %d packages loaded — loader is missing module packages", len(pkgs))
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	for _, must := range []string{"fpgapart/internal/core", "fpgapart/distjoin", "fpgapart/partition", "fpgapart/internal/lint"} {
		i := sort.SearchStrings(paths, must)
		if i >= len(paths) || paths[i] != must {
			t.Fatalf("package %s not loaded (have %v)", must, paths)
		}
	}
	findings := Run(pkgs, All())
	for _, f := range findings {
		t.Errorf("module not lint-clean: %v", f)
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		verbs  string
		ok     bool
	}{
		{"plain", "", true},
		{"%d and %s", "ds", true},
		{"%w: %v", "wv", true},
		{"100%% done %q", "q", true},
		{"%+v %#x %6.2f", "vxf", true},
		{"%*d", "", false},
		{"%[1]s", "", false},
	}
	for _, c := range cases {
		verbs, ok := formatVerbs(c.format)
		if ok != c.ok || string(verbs) != c.verbs {
			t.Errorf("formatVerbs(%q) = %q, %v; want %q, %v", c.format, string(verbs), ok, c.verbs, c.ok)
		}
	}
}

// TestBoundaryReachFixture: the call-graph analyzer over the three-package
// fixture chain — marker-checked in both directions, so the guarded, the
// panic-free and the non-error-returning shapes must all stay quiet.
func TestBoundaryReachFixture(t *testing.T) {
	pkgs, boundfix := loadBoundaryFixtures(t)
	br := &BoundaryReach{
		Boundary:       map[string]bool{boundfix.Path: true},
		InternalPrefix: "fpgapart/internal/",
		Sentinel:       "ErrSimulatorFault",
		MaxHops:        6,
	}
	findings := checkFixtureModule(t, pkgs, []Analyzer{br})
	assertFinding(t, findings, "boundary-reach", "boundhelper.Route")
	assertFinding(t, findings, "boundary-reach", "fixpanic")
	assertFinding(t, findings, "boundary-reach", "without wrapping ErrSimulatorFault")
	assertFinding(t, findings, "boundary-reach", "goroutine started in SpawnsUnguarded can reach a panic in fpgapart/internal/fixpanic via go func in")
	assertFinding(t, findings, "boundary-reach", "goroutine started in SpawnsNamed")
}

// TestBoundaryReachCatchesWhatPanicBoundaryMisses is the acceptance test of
// reachability over the module call graph: the 2+ hop transitive chain
// boundfix → boundhelper → internal/fixpanic, invisible to a per-package
// call scan, is caught; and an exported API whose only internal callee is
// panic-free is spared, because a finding requires a reachable panic SITE.
func TestBoundaryReachCatchesWhatPanicBoundaryMisses(t *testing.T) {
	pkgs, boundfix := loadBoundaryFixtures(t)
	br := &BoundaryReach{
		Boundary:       map[string]bool{boundfix.Path: true},
		InternalPrefix: "fpgapart/internal/",
		Sentinel:       "ErrSimulatorFault",
		MaxHops:        6,
	}
	newFindings := Run(pkgs, []Analyzer{br})
	assertFinding(t, newFindings, "boundary-reach", "TwoHop")
	assertFinding(t, newFindings, "boundary-reach", "Swallow")
	for _, f := range newFindings {
		if strings.Contains(f.Message, "PanicFree") {
			t.Errorf("boundary-reach flags a function that cannot reach a panic site: %v", f)
		}
	}
}

func TestHotpathAllocFixture(t *testing.T) {
	pkg := loadFixture(t, "hotfix")
	findings := checkFixture(t, pkg, []Analyzer{DefaultHotpathAlloc()})
	assertFinding(t, findings, "hotpath-alloc", "boxes")
	assertFinding(t, findings, "hotpath-alloc", "calls make")
	assertFinding(t, findings, "hotpath-alloc", "fmt.Sprintf")
	assertFinding(t, findings, "hotpath-alloc", "closure capturing")
	assertFinding(t, findings, "hotpath-alloc", "starts empty")
	assertFinding(t, findings, "hotpath-alloc", "address of a composite literal")
	assertFinding(t, findings, "hotpath-alloc", "hotfix.lane (72 bytes) by value")
	assertFinding(t, findings, "hotpath-alloc", "a type parameter's size")
	if len(findings) < 9 {
		t.Fatalf("hotpath-alloc caught %d constructs, want ≥ 9", len(findings))
	}
}

// TestAllSeven pins the default analyzer roster, five analyzers since the
// taint engine and clocked-component went (the name is kept for the test
// floor).
func TestAllSeven(t *testing.T) {
	want := []string{"determinism", "boundary-reach", "error-hygiene", "bench-json", "hotpath-alloc"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name() != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name(), want[i])
		}
		if a.Doc() == "" {
			t.Errorf("analyzer %s has no Doc()", a.Name())
		}
	}
}

// TestAllowMultilineStatement is the regression test for the escape-hatch
// fix: before findings carried an End position, a marker on any line of a
// multi-line statement other than the first (where gofmt leaves no room on
// wrapped calls) was silently ignored.
func TestAllowMultilineStatement(t *testing.T) {
	table := allows{"multi.go": {
		8: {"determinism": true},
	}}
	multi := Finding{
		Pos:      token.Position{Filename: "multi.go", Line: 5},
		End:      token.Position{Filename: "multi.go", Line: 8},
		Analyzer: "determinism",
	}
	if !table.allows(multi) {
		t.Error("marker on the closing line of a multi-line statement not honored")
	}
	single := Finding{
		Pos:      token.Position{Filename: "multi.go", Line: 5},
		Analyzer: "determinism",
	}
	if table.allows(single) {
		t.Error("zero-End finding must only match its own line and the line above")
	}
	wrongAnalyzer := Finding{
		Pos:      token.Position{Filename: "multi.go", Line: 5},
		End:      token.Position{Filename: "multi.go", Line: 8},
		Analyzer: "error-hygiene",
	}
	if table.allows(wrongAnalyzer) {
		t.Error("marker for a different analyzer suppressed the finding")
	}
}

// TestAllowMultilineEndToEnd drives the same fix through the real pipeline:
// a determinism finding on a wrapped call with the allow marker on the
// closing parenthesis line.
func TestAllowMultilineEndToEnd(t *testing.T) {
	l := testLoader(t)
	dir := t.TempDir()
	src := `package allowfix

import "time"

func Wait(d time.Duration) {
	time.Sleep(
		d,
	) //fpgavet:allow determinism test helper sleeps on purpose
}
`
	file := filepath.Join(dir, "allowfix.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckFiles("fpgapart/fixture/allowfix", []string{file})
	if err != nil {
		t.Fatal(err)
	}
	det := &Determinism{Paths: map[string]bool{pkg.Path: true}}
	if findings := Run([]*Package{pkg}, []Analyzer{det}); len(findings) != 0 {
		t.Errorf("allow marker on the closing line ignored: %v", findings)
	}
}

// TestAllowMarkerParsing covers the escape-hatch table directly.
func TestAllowMarkerParsing(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //fpgavet:allow determinism reason here
	//fpgavet:allow error-hygiene,bench-json
	_ = 2
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{file}}
	table := allowTable(pkg)
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "determinism", true},
		{4, "error-hygiene", false},
		{6, "error-hygiene", true}, // marker on the line above
		{6, "bench-json", true},
		{6, "determinism", false},
	}
	for _, c := range cases {
		f := Finding{Pos: token.Position{Filename: "allow.go", Line: c.line}, Analyzer: c.analyzer}
		if got := table.allows(f); got != c.want {
			t.Errorf("line %d %s: allowed=%v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
}

// TestClusterFixture runs the deterministic-path and boundary-reach
// analyzers — configured exactly as for the real fpgapart/cluster package —
// over the known-bad cluster twin: a map-range load gather, a wall-clock
// admission stamp, a global-rand failover backoff, an exported router
// API reaching an internal panic site unguarded, a map-range rebalance
// plan, and a wall-clock hedge deadline. Marker-checked in both
// directions, so the fixture also proves the analyzers stay quiet on its
// clean lines.
func TestClusterFixture(t *testing.T) {
	internal := loadFixtureAs(t, "fpgapart/internal/fixpanic", "fixpanic")
	pkg := loadFixture(t, "clusterfix")
	det := &Determinism{Paths: map[string]bool{pkg.Path: true}}
	br := &BoundaryReach{
		Boundary:       map[string]bool{pkg.Path: true},
		InternalPrefix: "fpgapart/internal/",
		Sentinel:       "ErrSimulatorFault",
		MaxHops:        6,
	}
	findings := checkFixtureModule(t, []*Package{internal, pkg}, []Analyzer{det, br})
	assertFinding(t, findings, "determinism", "range over map")
	assertFinding(t, findings, "determinism", "time.Now")
	assertFinding(t, findings, "determinism", "time.Since")
	assertFinding(t, findings, "determinism", "rand.")
	assertFinding(t, findings, "boundary-reach", "fixpanic")
	if len(findings) < 6 {
		t.Fatalf("cluster fixture produced %d findings, want ≥ 6", len(findings))
	}
}

// TestClusterOnAnalyzerRosters pins the roster membership the routing tier
// relies on: fpgapart/cluster replays bit-for-bit (deterministic path) and
// its exported APIs guard reachable internal/* panics (boundary-reach).
func TestClusterOnAnalyzerRosters(t *testing.T) {
	onPath := false
	for _, p := range DeterministicPathPackages {
		if p == "fpgapart/cluster" {
			onPath = true
		}
	}
	if !onPath {
		t.Error("fpgapart/cluster missing from DeterministicPathPackages")
	}
	if !DefaultBoundaryReach().Boundary["fpgapart/cluster"] {
		t.Error("fpgapart/cluster missing from the boundary-reach set")
	}
}

// TestReqtraceFixture runs the determinism and hotpath-alloc analyzers —
// configured as for the real causal-tracing package — over the known-bad
// reqtrace twin: host-clock job-record and flight stamps (direct and through
// a helper), a map-range merge of per-shard flight timelines, and a
// marker-declared hot recording wrapper that allocates per event. Marker-checked in both directions, so the fixture
// also proves the analyzers stay quiet on its clean recording path.
func TestReqtraceFixture(t *testing.T) {
	pkg := loadFixture(t, "reqtracefix")
	det := &Determinism{Paths: map[string]bool{pkg.Path: true}}
	findings := checkFixtureModule(t, []*Package{pkg}, []Analyzer{det, DefaultHotpathAlloc()})
	assertFinding(t, findings, "determinism", "range over map")
	assertFinding(t, findings, "determinism", "time.Now")
	assertFinding(t, findings, "determinism", "time.Since")
	assertFinding(t, findings, "hotpath-alloc", "literal")
	if len(findings) < 5 {
		t.Fatalf("reqtrace fixture produced %d findings, want ≥ 5", len(findings))
	}
}

// TestReqtraceOnAnalyzerRosters pins the roster membership the causal layer
// relies on: fpgapart/internal/reqtrace replays bit-for-bit (deterministic
// path) and its recording entry point, the flight ring, is statically
// allocation-free (a hotpath-alloc root).
func TestReqtraceOnAnalyzerRosters(t *testing.T) {
	onPath := false
	for _, p := range DeterministicPathPackages {
		if p == "fpgapart/internal/reqtrace" {
			onPath = true
		}
	}
	if !onPath {
		t.Error("fpgapart/internal/reqtrace missing from DeterministicPathPackages")
	}
	if r := "fpgapart/internal/simtrace.Ring.Record"; !DefaultHotpathAlloc().Roots[r] {
		t.Errorf("%s missing from the hotpath-alloc roots", r)
	}
}

// TestOperatorsPartitionThroughPartition locks the layering: everything
// above package partition, the paper's experiments included, partitions
// through it — the circuit and the CPU partitioner have one adapter (slot
// views, VRID rows, one CPU fallback for PAD overflow and the dummy key), not
// a private copy per operator or figure. partition and joincore's
// PartitionTuples recursion are the callers that remain. An entry of above
// that names no package of the module fails the test, so a deleted operator
// cannot leave a stale roster passing.
func TestOperatorsPartitionThroughPartition(t *testing.T) {
	pkgs, err := testLoader(t).LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	above := map[string]bool{
		"fpgapart/partserver": true, "fpgapart/hashjoin": true,
		"fpgapart/distjoin": true, "fpgapart/cluster": true,
		"fpgapart/experiments": true,
	}
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	for path := range above {
		if !loaded[path] {
			t.Errorf("above names %s, which the module does not have", path)
		}
	}
	checked := 0
	for _, n := range BuildCallGraph(pkgs).Nodes() {
		if !above[n.PkgPath()] {
			continue
		}
		checked++
		for _, e := range n.Out {
			switch callee := e.Callee.Fn.FullName(); callee {
			case "fpgapart/internal/core.NewCircuit", "fpgapart/internal/cpupart.Partition":
				t.Errorf("%v calls %s directly; go through package partition", n, callee)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d functions of the operator packages in the call graph", checked)
	}
}

// testOnly lists the module's functions that no non-test file uses and that
// stay anyway, each with the reason. TestInternalFunctionsHaveProductionCallers
// fails on an entry that has gained a production caller or lost its function.
var testOnly = map[string]string{
	"(*fpgapart/partserver.Report).WriteJSON":        "reference: the encoding the partserver golden pins",
	"fpgapart/internal/core.NewHashPipeline":         "reference: the staged murmur pipeline of Code 3, which FuzzHashPipelineParity holds against the software finalizer the circuit applies",
	"(*fpgapart/internal/core.HashPipeline).HashAll": "reference: drives the staged pipeline over a key stream for the parity tests",
	"fpgapart/internal/cpupart.PartitionTuples":      "reference: partitioning without a Scratch, which the fuzz and alignment tests hold the buffered kernels against",
	"fpgapart/internal/joincore.NestedLoop":          "reference: the brute-force join every join test compares matches and checksum against",
	"(*fpgapart/internal/fpga.FIFO[T]).Len":          "reference: the occupancy the circuit's run.queued and run.lines counters are checked against after every cycle",
	"(*fpgapart/partition.Result).Each":              "reference: the tuple-at-a-time read-back the partition goldens and multiset tests hold both backends to; consumers read whole runs through Run",
}

// TestInternalFunctionsHaveProductionCallers locks the shipped surface to the
// used surface: a function or method declared in any package of the module,
// main packages included, must be used by a non-test file of the module
// (benchmark/ and cmd/ count; a use inside its own body does not),
// or be a method some interface of the module or of the packages it imports
// can reach (String, Error, Unwrap, heap/sort, lint.Analyzer), or be on
// testOnly with a reason. init and a main package's main are exempt. The name
// predates the roster's widening from internal/ to the whole module.
func TestInternalFunctionsHaveProductionCallers(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	used := map[*types.Func]bool{}
	var declared []*types.Func
	for _, pkg := range pkgs {
		entry := map[string]bool{"init": true}
		if pkg.Types.Name() == "main" {
			entry["main"] = true
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
					if fn, ok := self.(*types.Func); ok && !entry[fd.Name.Name] {
						declared = append(declared, fn)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	ifaces, named := moduleInterfaces(pkgs), moduleNamedTypes(pkgs)
	seen := map[string]bool{}
	for _, fn := range declared {
		name := fn.FullName()
		_, listed := testOnly[name]
		seen[name] = true
		switch live := used[fn] || reachedThroughInterface(fn, ifaces, named); {
		case live && listed:
			t.Errorf("%s has a production caller now; drop it from testOnly", name)
		case !live && !listed:
			t.Errorf("%s: %s is used by no non-test file; delete it, or list it in testOnly with the reason it stays",
				l.Fset.Position(fn.Pos()), name)
		}
	}
	for name, reason := range testOnly {
		if !seen[name] {
			t.Errorf("testOnly lists %s, which is not declared in the module", name)
		}
		if reason == "" {
			t.Errorf("testOnly entry %s states no reason", name)
		}
	}
	if len(declared) < 700 {
		t.Fatalf("only %d functions found in the module", len(declared))
	}
}

// TestPromotedMethodIsReachedThroughInterface is the embedding case of
// reachedThroughInterface: a method whose own receiver implements no
// interface is reached when a type that gets it by embedding does, and only
// then.
func TestPromotedMethodIsReachedThroughInterface(t *testing.T) {
	const src = `package p

type Result interface {
	Text() string
	CSV() [][]string
}

type sweep struct{}

func (*sweep) CSV() [][]string { return nil }

type Figure struct{ sweep }

func (*Figure) Text() string { return "" }

type Table struct{ sweep }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{file}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(name string) types.Type { return pkg.Scope().Lookup(name).Type() }
	csv, _, _ := types.LookupFieldOrMethod(types.NewPointer(lookup("sweep")), false, pkg, "CSV")
	fn := csv.(*types.Func)
	ifaces := []*types.Interface{lookup("Result").Underlying().(*types.Interface)}
	named := func(names ...string) (out []*types.Named) {
		for _, n := range names {
			out = append(out, lookup(n).(*types.Named))
		}
		return out
	}
	if !reachedThroughInterface(fn, ifaces, named("sweep", "Figure", "Table")) {
		t.Error("(*sweep).CSV, promoted into *Figure, a Result, is not counted as reached")
	}
	if reachedThroughInterface(fn, ifaces, named("sweep", "Table")) {
		t.Error("(*sweep).CSV is counted as reached although no type holding it is a Result")
	}
}

// testOnlyOptions lists the option fields that no non-test file writes and
// that stay anyway. A reason starts with "reference:" (a reference the tests
// compare against) or "lock:" (a committed golden or cycle lock pins
// configurations that vary the field). Being a test's lever is not a reason.
var testOnlyOptions = map[string]string{
	"fpgapart/internal/core.Config.Stage1FIFODepth":   "lock: TestCycleLockRandom draws it (8–32) for each of the 256 configurations cycle_lock_random.json pins",
	"fpgapart/internal/core.Config.OutFIFODepth":      "lock: TestCycleLockRandom draws it (2–8) for each of the 256 configurations cycle_lock_random.json pins",
	"fpgapart/internal/simtrace.Session.SampleWindow": "lock: cycle_lock.json's traced cases sample every 64 cycles",
	"fpgapart/internal/joincore.BudgetConfig.Emit":    "lock: hashjoin.TestEmitOrderLock reads the order of matches through it, against emit_order_lock.json",
}

// namedOptionTypes are the option types whose name does not end in Config or
// Options.
var namedOptionTypes = map[string]bool{
	"fpgapart/internal/faults.Scenario":  true,
	"fpgapart/internal/rdma.Fabric":      true,
	"fpgapart/platform.Platform":         true,
	"fpgapart/internal/reqtrace.Capture": true,
	"fpgapart/internal/simtrace.Session": true,
}

// TestOptionsHaveProductionSetters locks the Options rule of the simplicity
// guide: a settable value exists because production code sets it. It covers
// every exported field of the module's option types — exported structs named
// Config or Options or ending in them, the namedOptionTypes, and any exported
// struct with a withDefaults, WithDefaults, validate or Validate method. A
// field passes when some non-test file of the module writes it (benchmark/
// and cmd/ count): a composite-literal key, an assignment, ++ or --, or its
// address taken (&x.F, as flag.IntVar does). A write inside a withDefaults or
// WithDefaults of the field's own package does not count. Any other field
// must be on testOnlyOptions with a reason of one of its two kinds; an
// entry whose field has gained a writer or no longer exists fails.
func TestOptionsHaveProductionSetters(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	var fields []*types.Var
	names := map[*types.Var]string{}
	for _, pkg := range pkgs {
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !isOptionType(tn) {
				continue
			}
			st := tn.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields = append(fields, f)
					names[f] = tn.Pkg().Path() + "." + tn.Name() + "." + f.Name()
				}
			}
		}
	}
	written := map[*types.Var]token.Pos{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				defaults := ok && strings.EqualFold(fd.Name.Name, "withDefaults")
				ast.Inspect(decl, func(n ast.Node) bool {
					for _, w := range fieldWrites(pkg.Info, n) {
						if _, seen := written[w.field]; !seen && !(defaults && w.field.Pkg() == pkg.Types) {
							written[w.field] = w.pos
						}
					}
					return true
				})
			}
		}
	}
	seen := map[string]bool{}
	for _, f := range fields {
		name := names[f]
		seen[name] = true
		_, listed := testOnlyOptions[name]
		switch pos, set := written[f]; {
		case set && listed:
			t.Errorf("%s: %s is written here; drop it from testOnlyOptions", l.Fset.Position(pos), name)
		case !set && !listed:
			t.Errorf("%s: %s is written by no non-test file; delete it or make it a constant, or list it in testOnlyOptions with a reason",
				l.Fset.Position(f.Pos()), name)
		}
	}
	entries := entryPositions(t, "testOnlyOptions")
	for name, reason := range testOnlyOptions {
		if !seen[name] {
			t.Errorf("%s: testOnlyOptions lists %s, which is not an option field of the module", entries[name], name)
		}
		switch kind, why, _ := strings.Cut(reason, ":"); {
		case kind != "reference" && kind != "lock":
			t.Errorf("%s: testOnlyOptions entry %s: reason %q does not start with reference: or lock:", entries[name], name, reason)
		case strings.TrimSpace(why) == "":
			t.Errorf("%s: testOnlyOptions entry %s states no reason after %s:", entries[name], name, kind)
		}
	}
	t.Logf("%d option fields, %d on testOnlyOptions", len(fields), len(testOnlyOptions))
	if len(fields) < 100 {
		t.Fatalf("only %d option fields found in the module", len(fields))
	}
}

// testOnlyFields lists the fields that no non-test file reads and that stay
// anyway, with a reason of the two kinds testOnlyOptions uses: "reference:"
// (the only view a test has of a behaviour no other check covers) or "lock:"
// (a committed golden or cycle lock is read through it).
var testOnlyFields = map[string]string{
	"fpgapart/internal/core.Stats.PartitionCycles":    "lock: TestCycleLock marshals every Stats field into cycle_lock.json; TestOneCacheLinePerCycle also reads the partition pass's length through it",
	"fpgapart/internal/joincore.Decision.Partition":   "lock: hashjoin.TestEmitOrderLock hashes every Decision's fields, this one included, into emit_order_lock.json",
	"fpgapart/internal/joincore.Decision.HeavyHitter": "lock: hashjoin.TestEmitOrderLock hashes every Decision's fields, this one included, into emit_order_lock.json; TestBudgetedHeavyHitterBroadcasts reads through it which rule forced a broadcast",
	"fpgapart/internal/rdma.ExchangeStats.Corrupted":  "reference: TestExchangeCorruptMessageFailsItsPieces holds CorruptPieces to eight per corrupt message through it, the only view of a message failing every piece it carried",
	"fpgapart/internal/reqtrace.Attempt.Aborted":      "reference: partserver.TestAbortAndReconfigurationCharges finds the aborted attempts through it and checks they are charged half of the completed run",
	"fpgapart/partserver.JobResult.Counts":            "reference: the partserver property, golden and fuzz tests hold every done job's per-partition counts to the single-tenant run through it; the output checksum sums over partitions and cannot see a tuple in the wrong one",
	"fpgapart/experiments.JoinPoint.Matches":          "reference: TestFigure10ConsistentAcrossFanOuts and TestFigure13HistNeverFallsBack hold the match count equal across fan-outs and between the CPU and the hybrid join on each Zipf input, runs no other test makes",
	"fpgapart/experiments.Claim.Lo":                   "reference: experiments.TestPaperClaims holds each gated claim's value at or above it; TestExperimentsQuotesEveryClaim tells a gated claim by it",
	"fpgapart/experiments.Claim.Hi":                   "reference: experiments.TestPaperClaims holds each gated claim's value at or below it; TestExperimentsQuotesEveryClaim tells a gated claim by it",
	"fpgapart/experiments.Claim.Why":                  "reference: experiments.TestPaperClaims names the paper section that justifies the interval a value left",
	"fpgapart/experiments.DistributedRow.JoinTuples":  "reference: TestDistributedShape's deterministic view of the join phase parallelizing across nodes, beside the host-timed JoinSec",
}

// TestFieldsHaveProductionReaders locks the output side of the Options rule:
// a field exists because production code reads it. It covers every exported
// field of an exported struct type in a non-main package of the module,
// except a field with a json: tag, which encoding/json reads. A field passes
// when some non-test file of the module reads it (benchmark/ and cmd/ count):
// a selector of it that is not the target of an assignment or the operand of
// ++ or --, or a selector that passes through it as an embedded field. A read
// inside a validate or Validate of the field's own package does not count.
// Any other field must be on testOnlyFields with a reason of one of the two
// kinds; an entry whose field has gained a reader or no longer exists fails.
func TestFieldsHaveProductionReaders(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	var fields []*types.Var
	names := map[*types.Var]string{}
	for _, pkg := range pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && reflect.StructTag(st.Tag(i)).Get("json") == "" {
					fields = append(fields, f)
					names[f] = tn.Pkg().Path() + "." + tn.Name() + "." + f.Name()
				}
			}
		}
	}
	read := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				validate := ok && strings.EqualFold(fd.Name.Name, "validate")
				written := map[*ast.SelectorExpr]bool{}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if x, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								written[x] = true
							}
						}
					case *ast.IncDecStmt:
						if x, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
							written[x] = true
						}
					case *ast.SelectorExpr:
						for _, f := range selectedFields(pkg.Info.Selections[n], written[n]) {
							if !(validate && f.Pkg() == pkg.Types) {
								read[f] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	seen := map[string]bool{}
	for _, f := range fields {
		name := names[f]
		seen[name] = true
		_, listed := testOnlyFields[name]
		switch {
		case read[f] && listed:
			t.Errorf("%s is read by a non-test file now; drop it from testOnlyFields", name)
		case !read[f] && !listed:
			t.Errorf("%s: %s is read by no non-test file; delete it with the code that fills it, or list it in testOnlyFields with a reason",
				l.Fset.Position(f.Pos()), name)
		}
	}
	entries := entryPositions(t, "testOnlyFields")
	for name, reason := range testOnlyFields {
		if !seen[name] {
			t.Errorf("%s: testOnlyFields lists %s, which is not a field the roster covers", entries[name], name)
		}
		switch kind, why, _ := strings.Cut(reason, ":"); {
		case kind != "reference" && kind != "lock":
			t.Errorf("%s: testOnlyFields entry %s: reason %q does not start with reference: or lock:", entries[name], name, reason)
		case strings.TrimSpace(why) == "":
			t.Errorf("%s: testOnlyFields entry %s states no reason after %s:", entries[name], name, kind)
		}
	}
	t.Logf("%d fields, %d on testOnlyFields", len(fields), len(testOnlyFields))
	if len(fields) < 400 {
		t.Fatalf("only %d fields found in the module", len(fields))
	}
}

// TestDesignCitesDeclaredTests holds DESIGN.md to the suite: every Test…,
// Benchmark… and Fuzz… name the document cites is declared by a _test.go
// file of the module, so renaming or deleting a test cannot leave a stale
// citation behind.
func TestDesignCitesDeclaredTests(t *testing.T) {
	root := filepath.Join("..", "..")
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`).FindAllIndex(design, -1)
	for _, at := range cited {
		if name := string(design[at[0]:at[1]]); !declared[name] {
			t.Errorf("DESIGN.md:%d cites %s, which no _test.go file declares", bytes.Count(design[:at[0]], []byte("\n"))+1, name)
		}
	}
	if len(cited) < 100 || len(declared) < 400 {
		t.Fatalf("found %d citations and %d declared tests; the scan is broken", len(cited), len(declared))
	}
}

// TestExperimentsQuotesEveryClaim holds EXPERIMENTS.md to the claims table:
// the paper's value of every gated claim appears in its exhibit's section,
// the one headed "## <exhibit> —", so the document cannot drop or misquote
// a number the reproduction is held to.
func TestExperimentsQuotesEveryClaim(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range experiments.Claims() {
		if c.Lo == c.Hi {
			continue
		}
		_, section, ok := bytes.Cut(doc, []byte("\n## "+c.Exhibit+" —"))
		if !ok {
			t.Errorf("EXPERIMENTS.md has no section headed %q", c.Exhibit)
			continue
		}
		section, _, _ = bytes.Cut(section, []byte("\n## "))
		value := strconv.FormatFloat(c.Paper, 'f', -1, 64)
		if !regexp.MustCompile(`(?:^|[^\d.])` + regexp.QuoteMeta(value) + `(?:$|[^\d.]|\.(?:$|\D))`).Match(section) {
			t.Errorf("EXPERIMENTS.md's %s section does not quote the paper's %s (%s)", c.Exhibit, value, c.Series)
		}
	}
}

// selectedFields returns the fields selection sel reads: the embedded fields
// it passes through, and the field it selects unless that is written.
func selectedFields(sel *types.Selection, written bool) []*types.Var {
	if sel == nil {
		return nil
	}
	var out []*types.Var
	typ := sel.Recv()
	path := sel.Index()
	for i, idx := range path {
		if p, ok := typ.Underlying().(*types.Pointer); ok {
			typ = p.Elem()
		}
		last := i == len(path)-1
		st, ok := typ.Underlying().(*types.Struct)
		if !ok || last && sel.Kind() != types.FieldVal {
			break
		}
		f := st.Field(idx)
		if !last || !written {
			out = append(out, f.Origin())
		}
		typ = f.Type()
	}
	return out
}

// entryPositions maps each key of the map literal this file assigns to the
// package variable name to the key's position, so that a finding about an
// allowlist entry points at the entry.
func entryPositions(t *testing.T, name string) map[string]token.Position {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "lint_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]token.Position{}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Names[0].Name != name {
				continue
			}
			for _, elt := range vs.Values[0].(*ast.CompositeLit).Elts {
				kv := elt.(*ast.KeyValueExpr)
				if key, err := strconv.Unquote(kv.Key.(*ast.BasicLit).Value); err == nil {
					pos[key] = fset.Position(kv.Pos())
				}
			}
		}
	}
	return pos
}

// isOptionType reports whether tn is an exported struct the options roster
// covers.
func isOptionType(tn *types.TypeName) bool {
	named, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() {
		return false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return false
	}
	name := tn.Name()
	if strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || namedOptionTypes[tn.Pkg().Path()+"."+name] {
		return true
	}
	for i := 0; i < named.NumMethods(); i++ {
		switch named.Method(i).Name() {
		case "withDefaults", "WithDefaults", "validate", "Validate":
			return true
		}
	}
	return false
}

// fieldWrite is one write of a struct field.
type fieldWrite struct {
	field *types.Var
	pos   token.Pos
}

// fieldWrites returns the struct fields node n writes: the keys of a
// composite literal, the left-hand sides of an assignment, the operand of ++
// or --, and the operand of &.
func fieldWrites(info *types.Info, n ast.Node) []fieldWrite {
	var out []fieldWrite
	target := func(e ast.Expr) {
		if x, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				out = append(out, fieldWrite{sel.Obj().(*types.Var).Origin(), x.Sel.Pos()})
			}
		}
	}
	switch n := n.(type) {
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					if f, ok := info.Uses[id].(*types.Var); ok && f.IsField() {
						out = append(out, fieldWrite{f.Origin(), id.Pos()})
					}
				}
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			target(lhs)
		}
	case *ast.IncDecStmt:
		target(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			target(n.X)
		}
	}
	return out
}

// unwrapper is the unnamed interface errors.Is, errors.As and errors.Unwrap
// assert an error to before they call its Unwrap.
var unwrapper = types.NewInterfaceType([]*types.Func{
	types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false)),
}, nil).Complete()

// moduleInterfaces collects every named, non-empty interface declared in the
// module's packages or in a package they import, plus error and unwrapper.
func moduleInterfaces(pkgs []*Package) []*types.Interface {
	ifaces := []*types.Interface{errorType, unwrapper}
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return ifaces
}

// moduleNamedTypes collects every named non-interface type declared at the
// top level of the module's packages.
func moduleNamedTypes(pkgs []*Package) []*types.Named {
	var named []*types.Named
	for _, pkg := range pkgs {
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				named = append(named, n)
			}
		}
	}
	return named
}

// reachedThroughInterface reports whether fn is a method that one of ifaces
// names and that a type holding fn implements: fn's receiver type, or one of
// named (or a pointer to it) that gets fn promoted by embedding.
func reachedThroughInterface(fn *types.Func, ifaces []*types.Interface, named []*types.Named) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	var holders []types.Type
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if holders == nil {
				holders = append(holders, recv.Type())
				for _, n := range named {
					for _, t := range []types.Type{n, types.NewPointer(n)} {
						obj, _, _ := types.LookupFieldOrMethod(t, false, fn.Pkg(), fn.Name())
						if m, ok := obj.(*types.Func); ok && m.Origin() == fn {
							holders = append(holders, t)
						}
					}
				}
			}
			for _, h := range holders {
				if types.Implements(h, it) {
					return true
				}
			}
		}
	}
	return false
}
