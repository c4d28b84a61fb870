package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot locates the repository root via go env GOMOD.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatal("not in a module")
	}
	return filepath.Dir(gomod)
}

// TestSelfClean is the enforcement test: the repository's own tree must
// stay unifvet-clean. A failure here means a determinism invariant
// regressed (or needs an explicit //unifvet:allow with a reason).
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	var buf bytes.Buffer
	code, err := run([]string{"./..."}, moduleRoot(t), &buf)
	if err != nil {
		t.Fatalf("unifvet: %v", err)
	}
	if code != 0 {
		t.Fatalf("unifvet found violations in the tree:\n%s", buf.String())
	}
}

// writeTempModule lays down a self-contained module with the given file.
func writeTempModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpvet\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestInjectedViolation verifies the driver exits non-zero when a
// violation is present.
func TestInjectedViolation(t *testing.T) {
	dir := writeTempModule(t, `package main

import "math/rand"

func main() { _ = rand.Intn(6) }
`)
	var buf bytes.Buffer
	code, err := run([]string{"./..."}, dir, &buf)
	if err != nil {
		t.Fatalf("unifvet: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; output:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "[detrand]") {
		t.Fatalf("expected a detrand finding, got:\n%s", buf.String())
	}
}

// TestSuppressedViolation verifies the allow directive flows through the
// driver end to end.
func TestSuppressedViolation(t *testing.T) {
	dir := writeTempModule(t, `package main

import "math/rand" //unifvet:allow detrand test fixture justifies itself

func main() { _ = rand.Intn(6) }
`)
	var buf bytes.Buffer
	code, err := run([]string{"./..."}, dir, &buf)
	if err != nil {
		t.Fatalf("unifvet: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; output:\n%s", code, buf.String())
	}
}

// TestReasonlessDirectiveFails verifies a directive without a reason is
// itself a finding.
func TestReasonlessDirectiveFails(t *testing.T) {
	dir := writeTempModule(t, `package main

import "math/rand" //unifvet:allow detrand

func main() { _ = rand.Intn(6) }
`)
	var buf bytes.Buffer
	code, err := run([]string{"./..."}, dir, &buf)
	if err != nil {
		t.Fatalf("unifvet: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; output:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "needs a trailing reason") {
		t.Fatalf("expected a directive finding, got:\n%s", buf.String())
	}
}

// TestJSONEnvelope verifies -json emits the shared obs run-document shape.
func TestJSONEnvelope(t *testing.T) {
	dir := writeTempModule(t, `package main

import "math/rand"

func main() { _ = rand.Intn(6) }
`)
	var buf bytes.Buffer
	code, err := run([]string{"-json", "./..."}, dir, &buf)
	if err != nil {
		t.Fatalf("unifvet: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var doc struct {
		Provenance struct {
			Tool string `json:"tool"`
		} `json:"provenance"`
		Results struct {
			Clean    bool `json:"clean"`
			Findings []struct {
				Analyzer string `json:"analyzer"`
				File     string `json:"file"`
				Line     int    `json:"line"`
				Message  string `json:"message"`
			} `json:"findings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decode run document: %v\n%s", err, buf.String())
	}
	if doc.Provenance.Tool != "unifvet" {
		t.Errorf("provenance.tool = %q, want unifvet", doc.Provenance.Tool)
	}
	if doc.Results.Clean {
		t.Error("clean = true with findings present")
	}
	if len(doc.Results.Findings) == 0 || doc.Results.Findings[0].Analyzer != "detrand" {
		t.Errorf("findings = %+v, want a detrand finding", doc.Results.Findings)
	}
}

// TestAnalyzersFlag lists the suite.
func TestAnalyzersFlag(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{"-analyzers"}, ".", &buf)
	if err != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v", code, err)
	}
	for _, name := range []string{
		"detrand", "wallclock", "maporder", "sharedrng",
		"framecap", "votepure", "lockio", "qlifecycle",
	} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("analyzer list missing %s:\n%s", name, buf.String())
		}
	}
}

// TestRetiredFixFlag checks that -fix is refused as an undefined flag:
// no analyzer attaches a rewrite, so there is nothing for it to apply.
func TestRetiredFixFlag(t *testing.T) {
	dir := writeTempModule(t, `package main

func main() {}
`)
	var buf bytes.Buffer
	code, err := run([]string{"-fix", "./..."}, dir, &buf)
	if code != 2 || err == nil || err.Error() != "flag provided but not defined: -fix" {
		t.Fatalf("unifvet -fix: code=%d err=%v, want 2 and an undefined-flag error", code, err)
	}
}

// TestSARIFFlag verifies -sarif writes a valid SARIF 2.1.0 log with
// repo-relative URIs.
func TestSARIFFlag(t *testing.T) {
	dir := writeTempModule(t, `package main

import "math/rand"

func main() { _ = rand.Intn(6) }
`)
	sarifPath := filepath.Join(t.TempDir(), "unifvet.sarif")
	var buf bytes.Buffer
	code, err := run([]string{"-sarif", sarifPath, "./..."}, dir, &buf)
	if err != nil {
		t.Fatalf("unifvet -sarif: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("invalid SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) == 0 {
		t.Fatalf("want one run with results, got %+v", log)
	}
	r := log.Runs[0].Results[0]
	if r.RuleID != "detrand" {
		t.Errorf("ruleId = %q, want detrand", r.RuleID)
	}
	if uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "main.go" {
		t.Errorf("uri = %q, want module-relative main.go", uri)
	}
}

// TestSARIFStdoutWithJSON checks that -sarif - with -json, which would
// write two JSON documents to stdout, is a usage error that writes
// nothing, while -sarif to a file with -json writes one document to each.
func TestSARIFStdoutWithJSON(t *testing.T) {
	dir := writeTempModule(t, `package main

import "math/rand"

func main() { _ = rand.Intn(6) }
`)
	var buf bytes.Buffer
	code, err := run([]string{"-sarif", "-", "-json", "./..."}, dir, &buf)
	if code != 2 || err == nil || buf.Len() != 0 {
		t.Fatalf("unifvet -sarif - -json: code=%d err=%v stdout=%d bytes, want 2, an error and no output", code, err, buf.Len())
	}

	sarifPath := filepath.Join(t.TempDir(), "unifvet.sarif")
	code, err = run([]string{"-sarif", sarifPath, "-json", "./..."}, dir, &buf)
	if code != 1 || err != nil {
		t.Fatalf("unifvet -sarif <file> -json: code=%d err=%v, want 1 and no error", code, err)
	}
	var doc struct {
		Results struct {
			Clean bool `json:"clean"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not one run document: %v", err)
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(data, &log); err != nil || log.Version != "2.1.0" {
		t.Fatalf("SARIF file: version %q, err %v", log.Version, err)
	}
}

// TestJSONCounts verifies the run document carries an explicit count per
// analyzer — zero included — so dashboards never have to guess whether a
// missing key means clean or not-run.
func TestJSONCounts(t *testing.T) {
	dir := writeTempModule(t, `package main

import "math/rand"

func main() { _ = rand.Intn(6) }
`)
	var buf bytes.Buffer
	code, err := run([]string{"-json", "./..."}, dir, &buf)
	if err != nil {
		t.Fatalf("unifvet -json: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var doc struct {
		Results struct {
			Counts map[string]int `json:"counts"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decode run document: %v", err)
	}
	want := []string{
		"detrand", "wallclock", "maporder", "sharedrng",
		"framecap", "votepure", "lockio", "qlifecycle", "directive",
	}
	if len(doc.Results.Counts) != len(want) {
		t.Errorf("counts has %d entries, want %d: %v", len(doc.Results.Counts), len(want), doc.Results.Counts)
	}
	for _, name := range want {
		n, ok := doc.Results.Counts[name]
		if !ok {
			t.Errorf("counts missing explicit entry for %s", name)
			continue
		}
		if name == "detrand" && n != 1 {
			t.Errorf("counts[detrand] = %d, want 1", n)
		}
		if name != "detrand" && n != 0 {
			t.Errorf("counts[%s] = %d, want explicit 0", name, n)
		}
	}
}
