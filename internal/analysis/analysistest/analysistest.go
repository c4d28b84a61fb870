// Package analysistest runs unifvet analyzers against fixture packages, in
// the manner of golang.org/x/tools/go/analysis/analysistest (which the
// build deliberately does not vendor). Fixtures live under
// internal/analysis/testdata/src/<path>/; each expected finding is marked
// with a trailing
//
//	// want "regexp"
//
// comment on the offending line, and `//unifvet:allow` directives in
// fixtures are honored exactly as the cmd/unifvet driver honors them — so
// suppressed-case fixtures verify the directive machinery end to end.
//
// Fixture imports resolve in two steps: a path with a directory under
// testdata/src (e.g. "rng", "wire") loads that fixture package recursively;
// anything else is treated as a standard-library import and satisfied from
// gc export data via one `go list -export -deps -json` call per run.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/unifdist/unifdist/internal/analysis"
)

// Run loads each fixture package (paths relative to testdata/src), applies
// the analyzer with directive suppression, and compares findings against
// the fixtures' want comments.
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	loader := newLoader(t, "testdata/src")
	for _, fixture := range fixtures {
		fixture := fixture
		t.Run(strings.ReplaceAll(fixture, "/", "_"), func(t *testing.T) {
			t.Helper()
			pkg := loader.load(t, fixture)
			diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
			if err != nil {
				t.Fatalf("run %s on %s: %v", a.Name, fixture, err)
			}
			check(t, loader.fset, pkg, diags)
		})
	}
}

// check diffs reported diagnostics against want comments, per file+line.
func check(t *testing.T, fset *token.FileSet, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[string]map[int]*wantSpec{} // file → line → spec
	for _, f := range pkg.Files {
		name := fset.Position(f.Pos()).Filename
		wants[name] = collectWants(t, fset, f)
	}
	for _, d := range diags {
		spec := wants[d.File][d.Line]
		switch {
		case spec == nil:
			t.Errorf("%s: unexpected diagnostic: %s", relPath(d.File), d.String())
		case !spec.re.MatchString(d.Message):
			t.Errorf("%s:%d: diagnostic %q does not match want %q", relPath(d.File), d.Line, d.Message, spec.re)
			spec.matched = true
		default:
			spec.matched = true
		}
	}
	for file, lines := range wants {
		for line, spec := range lines {
			if !spec.matched {
				t.Errorf("%s:%d: no diagnostic matching want %q", relPath(file), line, spec.re)
			}
		}
	}
}

type wantSpec struct {
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+"(.*)"\s*$`)

// collectWants extracts // want "regexp" comments keyed by line.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File) map[int]*wantSpec {
	t.Helper()
	out := map[int]*wantSpec{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("bad want regexp %q: %v", m[1], err)
			}
			out[fset.Position(c.Pos()).Line] = &wantSpec{re: re}
		}
	}
	return out
}

// relPath trims the fixture path down to the testdata-relative tail for
// readable failure messages.
func relPath(p string) string {
	if i := strings.Index(p, "testdata"+string(filepath.Separator)); i >= 0 {
		return p[i:]
	}
	return p
}

// loader loads fixture packages with memoization and shared stdlib export
// data.
type loader struct {
	srcRoot string
	fset    *token.FileSet
	mu      sync.Mutex
	pkgs    map[string]*analysis.Package
	exports map[string]string
	std     types.Importer
}

var (
	sharedLoaderOnce sync.Once
	sharedLoader     *loader
)

// newLoader returns the process-wide fixture loader (fixtures are
// immutable inputs, so all tests can share parse and type-check work).
func newLoader(t *testing.T, srcRoot string) *loader {
	t.Helper()
	sharedLoaderOnce.Do(func() {
		abs, err := filepath.Abs(srcRoot)
		if err != nil {
			abs = srcRoot
		}
		l := &loader{
			srcRoot: abs,
			fset:    token.NewFileSet(),
			pkgs:    map[string]*analysis.Package{},
			exports: map[string]string{},
		}
		l.std = analysis.ExportDataImporter(l.fset, l.exports)
		sharedLoader = l
	})
	return sharedLoader
}

// load parses and type-checks the fixture package at srcRoot/path.
func (l *loader) load(t *testing.T, path string) *analysis.Package {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	pkg, err := l.loadLocked(path, map[string]bool{})
	if err != nil {
		t.Fatalf("load fixture %s: %v", path, err)
	}
	return pkg
}

func (l *loader) loadLocked(path string, inProgress map[string]bool) (*analysis.Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	if inProgress[path] {
		return nil, fmt.Errorf("fixture import cycle through %q", path)
	}
	inProgress[path] = true
	defer delete(inProgress, path)

	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var stdImports []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if _, statErr := os.Stat(filepath.Join(l.srcRoot, filepath.FromSlash(ipath))); statErr == nil {
				if _, err := l.loadLocked(ipath, inProgress); err != nil {
					return nil, err
				}
			} else {
				stdImports = append(stdImports, ipath)
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	if err := l.ensureExports(stdImports); err != nil {
		return nil, err
	}

	info := analysis.NewInfo()
	conf := types.Config{
		Importer: fixtureImporter{loader: l},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	pkg := &analysis.Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// ensureExports adds gc export data for any not-yet-seen stdlib imports
// (and their dependency closure) to the shared export map.
func (l *loader) ensureExports(paths []string) error {
	var missing []string
	for _, p := range paths {
		if _, ok := l.exports[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, missing...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list %v: %v\n%s", missing, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp struct {
			ImportPath string
			Export     string
		}
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("go list: decode: %w", err)
		}
		if lp.Export != "" {
			l.exports[lp.ImportPath] = lp.Export
		}
	}
	return nil
}

// fixtureImporter resolves fixture-local packages first, stdlib second.
type fixtureImporter struct{ loader *loader }

func (i fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg := i.loader.pkgs[path]; pkg != nil {
		return pkg.Types, nil
	}
	return i.loader.std.Import(path)
}
