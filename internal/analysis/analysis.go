// Package analysis implements unifvet, the repository's determinism and
// safety lint suite. It provides a small, dependency-free analog of
// golang.org/x/tools/go/analysis (the container build deliberately vendors
// nothing): an Analyzer inspects one type-checked package at a time through
// a Pass and reports Diagnostics, a driver loads packages via `go list
// -export` and gc export data, and the `//unifvet:allow <analyzer> <reason>`
// directive suppresses individual findings with an audit trail.
//
// The suite exists because the benchmark harness's reproducibility contract
// — byte-identical experiment tables at any worker count — rests on
// invariants no compiler checks: all randomness flows through internal/rng,
// trial paths never read the wall clock, map iteration order never reaches
// a table or JSON document, and generators are never shared across
// goroutines. Each invariant has a dedicated analyzer; see DESIGN.md §3.8
// for the rules table.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one lint rule: a name (used in diagnostics and in
// //unifvet:allow directives), a doc sentence, and a Run function applied
// to each loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one type-checked package to an analyzer. Analyzers read
// the syntax trees and type information and call Reportf; they must not
// mutate the package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path as the loader resolved it. For
	// fixture packages loaded by the test harness this is the
	// testdata/src-relative path, so analyzers should match path *segments*
	// (see HasPathSegment) rather than full module paths.
	Path string

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Package:  p.Path,
	})
}

// A Diagnostic is one finding. The JSON shape is what cmd/unifvet -json
// embeds in the shared obs run-document envelope.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Package  string `json:"package,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// All returns the full unifvet analyzer suite in reporting order. The
// first four guard the simulation/trial invariants; the last four guard
// the cluster runtime's wire-protocol and concurrency contracts.
func All() []*Analyzer {
	return []*Analyzer{
		DetRand,
		WallClock,
		MapOrder,
		SharedRNG,
		FrameCap,
		VotePure,
		LockIO,
		QLifecycle,
	}
}

// RunAnalyzers applies each analyzer to each package, filters the findings
// through the packages' //unifvet:allow directives, appends diagnostics for
// malformed directives, and returns everything sorted by file, line,
// column, then analyzer — a deterministic order regardless of package load
// order (unifvet practices what maporder preaches).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows, bad := CollectAllows(pkg.Fset, pkg.Files)
		out = append(out, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Path:      pkg.Path,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			out = append(out, allows.Filter(pass.diags)...)
		}
	}
	SortDiagnostics(out)
	return out, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// HasPathSegment reports whether path, split on '/', contains seg. Matching
// segments instead of full import paths lets the same analyzers run against
// both the real module tree (github.com/…/internal/rng) and the test
// harness's fixture packages (detrandexempt/rng).
func HasPathSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// IsTestFile reports whether pos lies in a _test.go file. The standard
// loader only feeds analyzers non-test sources, but the harness and future
// loaders may not, so analyzers that exempt tests check explicitly.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// NamedFrom reports whether t is the named type `name` declared in a
// package whose import path ends with the segment pkgSeg, unwrapping one
// level of pointer. This is how analyzers recognize rng.RNG and
// wire.Reader across the real tree and fixture stubs.
func NamedFrom(t types.Type, pkgSeg, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSeg || strings.HasSuffix(path, "/"+pkgSeg)
}

// CalleeIn returns the selector name of call's callee when it resolves to a
// package-level function or method exported from a package whose path ends
// in pkgSeg (e.g. CalleeIn(call, info, "time") == "Now" for time.Now()).
// Returns "" otherwise.
func CalleeIn(call *ast.CallExpr, info *types.Info, pkgSeg string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if path != pkgSeg && !strings.HasSuffix(path, "/"+pkgSeg) {
		return ""
	}
	return obj.Name()
}
