package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectivePrefix introduces a suppression comment. The full syntax is
//
//	//unifvet:allow <analyzer>[,<analyzer>…] <reason…>
//
// placed either at the end of the offending line or on its own line
// immediately above. One line can suppress several analyzers at once by
// naming them comma-separated (no spaces): `//unifvet:allow
// lockio,framecap <reason>`. The reason is mandatory in every form: a
// suppression without a recorded justification is itself reported as a
// finding, so `unifvet` output stays the audit trail for every exemption.
const DirectivePrefix = "//unifvet:allow"

// Allows indexes suppression directives by file and line for filtering.
type Allows struct {
	byLine map[string]map[int]map[string]bool // file → line → analyzer
}

// CollectAllows parses every //unifvet:allow directive in files. Malformed
// directives — a missing analyzer name or a missing reason — are returned
// as diagnostics under the pseudo-analyzer "directive" so the driver fails
// the build on them.
func CollectAllows(fset *token.FileSet, files []*ast.File) (Allows, []Diagnostic) {
	allows := Allows{byLine: map[string]map[int]map[string]bool{}}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, DirectivePrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "malformed //unifvet:allow directive: missing analyzer name",
					})
					continue
				}
				if len(fields) < 2 {
					// The reason is mandatory in the single- and multi-analyzer
					// forms alike: a reasonless `//unifvet:allow lockio,framecap`
					// is a finding, not a suppression.
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "//unifvet:allow " + fields[0] + " needs a trailing reason explaining the exemption",
					})
					continue
				}
				analyzers, ok := splitAnalyzerList(fields[0])
				if !ok {
					bad = append(bad, Diagnostic{
						Analyzer: "directive",
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "malformed //unifvet:allow analyzer list " + fields[0] + ": comma-separated names, no empty entries",
					})
					continue
				}
				lines := allows.byLine[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					allows.byLine[pos.Filename] = lines
				}
				names := lines[pos.Line]
				if names == nil {
					names = map[string]bool{}
					lines[pos.Line] = names
				}
				for _, a := range analyzers {
					names[a] = true
				}
			}
		}
	}
	return allows, bad
}

// splitAnalyzerList parses the directive's analyzer field: one name, or
// several comma-separated (`lockio,framecap`). Empty entries — a leading,
// trailing, or doubled comma — make the whole list malformed.
func splitAnalyzerList(field string) ([]string, bool) {
	parts := strings.Split(field, ",")
	for _, p := range parts {
		if p == "" {
			return nil, false
		}
	}
	return parts, true
}

// Allowed reports whether a diagnostic from analyzer at file:line is
// suppressed: a directive for that analyzer sits on the same line (trailing
// comment) or on the line directly above (standalone comment).
func (a Allows) Allowed(analyzer, file string, line int) bool {
	lines := a.byLine[file]
	if lines == nil {
		return false
	}
	return lines[line][analyzer] || lines[line-1][analyzer]
}

// Filter returns the diagnostics not suppressed by a directive.
func (a Allows) Filter(diags []Diagnostic) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		if !a.Allowed(d.Analyzer, d.File, d.Line) {
			kept = append(kept, d)
		}
	}
	return kept
}
