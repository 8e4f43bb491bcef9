// Command fpgavet is the project's custom static-analysis suite. It loads
// every package of the module with the standard library's go/parser +
// go/types, builds a whole-module call graph, and enforces the invariants
// the compiler cannot see — simulator determinism, call-graph reachability
// of internal panic sites from the public API (boundary-reach), %w/errors.Is
// error hygiene, byte-pinned BENCH marshaling, and hot-path allocation
// freedom (see internal/lint).
//
// Usage:
//
//	fpgavet [-C moduleDir] [-analyzers a,b,c] [-json] [-list] [packages...]
//
// With no package arguments (or ./...), the whole module is checked.
// Package arguments are module-relative directory paths (./distjoin) and
// filter the reported packages. Findings print as
//
//	path/file.go:line:col: [analyzer] message
//
// which is clickable in most terminals. -json switches the report to a
// machine-readable array (stable field order, one object per finding);
// -list prints the available analyzers with their one-line docs and exits.
// Exit status: 0 clean, 1 findings, 2 operational error. Individual
// findings can be suppressed with an explicit `//fpgavet:allow <analyzer>
// [reason]` comment on any line the offending statement spans or the line
// above it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fpgapart/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	modDir := flag.String("C", "", "module directory (default: nearest go.mod above the working directory)")
	names := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	asJSON := flag.Bool("json", false, "report findings as a JSON array instead of file:line:col lines")
	list := flag.Bool("list", false, "list the available analyzers with their one-line docs and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-18s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	dir := *modDir
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpgavet: %v\n", err)
			return 2
		}
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpgavet: %v\n", err)
		return 2
	}

	loader, err := lint.NewLoader(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpgavet: %v\n", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpgavet: %v\n", err)
		return 2
	}
	pkgs = filterPackages(pkgs, loader.ModPath, flag.Args())

	findings := lint.Run(pkgs, analyzers)
	for i := range findings {
		findings[i].Pos.Filename = relativize(dir, findings[i].Pos.Filename)
		findings[i].End.Filename = relativize(dir, findings[i].End.Filename)
	}
	if *asJSON {
		printJSON(findings)
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fpgavet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// printJSON writes the findings as a JSON array. The fields are emitted by
// hand in a fixed order — the same field-by-field discipline the bench-json
// analyzer enforces on the BENCH write path — so the output bytes depend
// only on the findings, never on marshaling internals.
func printJSON(findings []lint.Finding) {
	var b strings.Builder
	b.WriteString("[")
	for i, f := range findings {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  {")
		fmt.Fprintf(&b, "\"file\":%s,", jsonString(f.Pos.Filename))
		fmt.Fprintf(&b, "\"line\":%d,\"col\":%d,", f.Pos.Line, f.Pos.Column)
		fmt.Fprintf(&b, "\"endLine\":%d,\"endCol\":%d,", f.End.Line, f.End.Column)
		fmt.Fprintf(&b, "\"analyzer\":%s,", jsonString(f.Analyzer))
		fmt.Fprintf(&b, "\"message\":%s", jsonString(f.Message))
		b.WriteString("}")
	}
	if len(findings) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("]\n")
	fmt.Print(b.String())
}

// jsonString quotes s as a JSON string: backslash, quote and control bytes
// escaped, everything else (including multi-byte UTF-8) passed through.
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
				continue
			}
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

func selectAnalyzers(names string) ([]lint.Analyzer, error) {
	all := lint.All()
	if names == "" {
		return all, nil
	}
	byName := map[string]lint.Analyzer{}
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			var have []string
			for _, a := range all {
				have = append(have, a.Name())
			}
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(have, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// filterPackages keeps the packages matching the command-line patterns.
// "./..." (or no patterns) keeps everything; "./dir" keeps that directory's
// package.
func filterPackages(pkgs []*lint.Package, modPath string, patterns []string) []*lint.Package {
	var dirs []string
	for _, p := range patterns {
		if p == "./..." || p == "..." || p == modPath {
			return pkgs
		}
		p = strings.TrimSuffix(p, "/...")
		p = strings.TrimPrefix(p, "./")
		dirs = append(dirs, strings.Trim(p, "/"))
	}
	if len(dirs) == 0 {
		return pkgs
	}
	var out []*lint.Package
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, modPath), "/")
		for _, d := range dirs {
			if rel == d || strings.HasPrefix(rel, d+"/") {
				out = append(out, pkg)
				break
			}
		}
	}
	return out
}

// relativize shortens absolute finding paths to module-relative ones.
func relativize(modDir, filename string) string {
	if rel, err := filepath.Rel(modDir, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return filename
}
