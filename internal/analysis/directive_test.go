package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestCollectAllowsParsesDirectives(t *testing.T) {
	fset, files := parseOne(t, `package p

//unifvet:allow wallclock timing is observability only
var a int

var b int //unifvet:allow maporder consumer is commutative
`)
	allows, bad := CollectAllows(fset, files)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed-directive diagnostics: %v", bad)
	}
	// Standalone directive suppresses its own line and the next.
	if !allows.Allowed("wallclock", "dir.go", 3) || !allows.Allowed("wallclock", "dir.go", 4) {
		t.Errorf("standalone directive should cover lines 3 and 4")
	}
	if allows.Allowed("wallclock", "dir.go", 5) {
		t.Errorf("directive must not cover line 5")
	}
	// Trailing directive suppresses its own line.
	if !allows.Allowed("maporder", "dir.go", 6) {
		t.Errorf("trailing directive should cover line 6")
	}
	// Analyzer names must match.
	if allows.Allowed("maporder", "dir.go", 4) || allows.Allowed("detrand", "dir.go", 6) {
		t.Errorf("directives must be analyzer-specific")
	}
}

func TestCollectAllowsRequiresReason(t *testing.T) {
	fset, files := parseOne(t, `package p

//unifvet:allow wallclock
var a int

//unifvet:allow
var b int
`)
	allows, bad := CollectAllows(fset, files)
	if len(bad) != 2 {
		t.Fatalf("want 2 malformed-directive diagnostics, got %v", bad)
	}
	if !strings.Contains(bad[0].Message, "needs a trailing reason") {
		t.Errorf("missing-reason message: %q", bad[0].Message)
	}
	if !strings.Contains(bad[1].Message, "missing analyzer name") {
		t.Errorf("missing-name message: %q", bad[1].Message)
	}
	if allows.Allowed("wallclock", "dir.go", 3) || allows.Allowed("wallclock", "dir.go", 4) {
		t.Errorf("malformed directive must not suppress anything")
	}
}

func TestCollectAllowsMultiAnalyzer(t *testing.T) {
	fset, files := parseOne(t, `package p

//unifvet:allow lockio,framecap shutdown path flushes one pre-encoded frame
var a int
`)
	allows, bad := CollectAllows(fset, files)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed-directive diagnostics: %v", bad)
	}
	for _, name := range []string{"lockio", "framecap"} {
		if !allows.Allowed(name, "dir.go", 4) {
			t.Errorf("multi-analyzer directive should suppress %s on line 4", name)
		}
	}
	if allows.Allowed("qlifecycle", "dir.go", 4) {
		t.Errorf("multi-analyzer directive must not suppress unlisted analyzers")
	}
}

func TestCollectAllowsMultiAnalyzerNeedsReason(t *testing.T) {
	// The reasonless multi-analyzer form is itself a finding, exactly like
	// the single-analyzer form.
	fset, files := parseOne(t, `package p

//unifvet:allow lockio,framecap
var a int
`)
	allows, bad := CollectAllows(fset, files)
	if len(bad) != 1 {
		t.Fatalf("want 1 malformed-directive diagnostic, got %v", bad)
	}
	if !strings.Contains(bad[0].Message, "needs a trailing reason") {
		t.Errorf("missing-reason message: %q", bad[0].Message)
	}
	if allows.Allowed("lockio", "dir.go", 4) || allows.Allowed("framecap", "dir.go", 4) {
		t.Errorf("reasonless multi-analyzer directive must not suppress anything")
	}
}

func TestCollectAllowsMalformedList(t *testing.T) {
	fset, files := parseOne(t, `package p

//unifvet:allow lockio,,framecap doubled comma is malformed
var a int

//unifvet:allow ,lockio leading comma is malformed
var b int
`)
	allows, bad := CollectAllows(fset, files)
	if len(bad) != 2 {
		t.Fatalf("want 2 malformed-directive diagnostics, got %v", bad)
	}
	for _, d := range bad {
		if !strings.Contains(d.Message, "malformed //unifvet:allow analyzer list") {
			t.Errorf("malformed-list message: %q", d.Message)
		}
	}
	if allows.Allowed("lockio", "dir.go", 4) || allows.Allowed("framecap", "dir.go", 4) || allows.Allowed("lockio", "dir.go", 7) {
		t.Errorf("malformed list must not suppress anything")
	}
}

func TestAllowsFilter(t *testing.T) {
	fset, files := parseOne(t, `package p

var a int //unifvet:allow detrand fixture reason
`)
	allows, bad := CollectAllows(fset, files)
	if len(bad) != 0 {
		t.Fatalf("unexpected diagnostics: %v", bad)
	}
	diags := []Diagnostic{
		{Analyzer: "detrand", File: "dir.go", Line: 3, Message: "suppressed"},
		{Analyzer: "wallclock", File: "dir.go", Line: 3, Message: "kept (wrong analyzer)"},
		{Analyzer: "detrand", File: "dir.go", Line: 9, Message: "kept (wrong line)"},
	}
	kept := allows.Filter(diags)
	if len(kept) != 2 {
		t.Fatalf("want 2 kept, got %v", kept)
	}
	for _, d := range kept {
		if d.Message == "suppressed" {
			t.Errorf("suppressed diagnostic survived the filter")
		}
	}
}

func TestHasPathSegment(t *testing.T) {
	cases := []struct {
		path, seg string
		want      bool
	}{
		{"github.com/unifdist/unifdist/internal/rng", "rng", true},
		{"rng", "rng", true},
		{"detrand/exempt/rng", "rng", true},
		{"github.com/unifdist/unifdist/internal/zeroround", "rng", false},
		{"wrng/x", "rng", false},
	}
	for _, c := range cases {
		if got := HasPathSegment(c.path, c.seg); got != c.want {
			t.Errorf("HasPathSegment(%q, %q) = %v, want %v", c.path, c.seg, got, c.want)
		}
	}
}

func TestSortDiagnosticsDeterministic(t *testing.T) {
	diags := []Diagnostic{
		{File: "b.go", Line: 1, Col: 1, Analyzer: "maporder"},
		{File: "a.go", Line: 9, Col: 2, Analyzer: "sharedrng"},
		{File: "a.go", Line: 9, Col: 2, Analyzer: "detrand"},
		{File: "a.go", Line: 2, Col: 5, Analyzer: "wallclock"},
	}
	SortDiagnostics(diags)
	order := make([]string, len(diags))
	for i, d := range diags {
		order[i] = d.File + "/" + d.Analyzer
	}
	want := []string{"a.go/wallclock", "a.go/detrand", "a.go/sharedrng", "b.go/maporder"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
