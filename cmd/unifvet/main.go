// Command unifvet runs the repository's determinism & safety lint suite
// (internal/analysis) over the named packages, in the manner of go vet:
//
//	go run ./cmd/unifvet ./...
//	go run ./cmd/unifvet -json ./... > vet.json
//	go run ./cmd/unifvet -sarif unifvet.sarif ./...
//
// The eight analyzers — detrand, wallclock, maporder, sharedrng,
// framecap, votepure, lockio, qlifecycle — enforce the invariants the
// benchmark harness's byte-for-byte reproducibility and the cluster
// runtime's wire-protocol/concurrency contracts rest on; see DESIGN.md
// §3.8 and §3.13. Individual findings are suppressed with
// `//unifvet:allow <analyzer>[,<analyzer>…] <reason>` on the offending
// line or the line above; the reason is mandatory.
//
// -sarif writes the findings as a SARIF 2.1.0 log to the given path for
// GitHub code scanning upload, alongside the normal output. With "-" the
// log goes to stdout in place of the findings, so -sarif - together with
// -json, which would put two documents on stdout, is a usage error.
//
// Exit status: 0 when clean, 1 when any finding (or malformed directive)
// is reported, 2 when a flag is undefined or packages fail to load. With
// -json the findings are embedded in the shared obs run-document envelope
// (the same schema emitted by unifbench/congestsim/gaptest -json) together
// with a "counts" map carrying an explicit — possibly zero — entry per
// analyzer, so CI tooling parses one format for experiments, benchmarks,
// and lint results alike and can chart per-analyzer trends without
// guessing at absent keys.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/unifdist/unifdist/internal/analysis"
	"github.com/unifdist/unifdist/internal/obs"
)

func main() {
	code, err := run(os.Args[1:], ".", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unifvet:", err)
	}
	os.Exit(code)
}

// run loads the packages matched by the flag-stripped patterns relative to
// dir, applies the analyzer suite, and renders findings to stdout. It
// returns the process exit code.
func run(args []string, dir string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("unifvet", flag.ContinueOnError)
	jsonFlag := fs.Bool("json", false, "emit findings as an obs run-document JSON")
	listFlag := fs.Bool("analyzers", false, "list the analyzer suite and exit")
	sarifFlag := fs.String("sarif", "", "write findings as SARIF 2.1.0 to this path (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *sarifFlag == "-" && *jsonFlag {
		return 2, fmt.Errorf("-sarif - and -json both write to stdout; give -sarif a file path")
	}
	analyzers := analysis.All()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}

	pkgs, err := analysis.Load(dir, patterns)
	if err != nil {
		return 2, err
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		return 2, err
	}

	if *sarifFlag != "" {
		root := dir
		if abs, err := filepath.Abs(dir); err == nil {
			root = abs
		}
		sarif, err := analysis.SARIF(diags, analyzers, root)
		if err != nil {
			return 2, err
		}
		sarif = append(sarif, '\n')
		if *sarifFlag == "-" {
			if _, err := stdout.Write(sarif); err != nil {
				return 2, err
			}
		} else if err := os.WriteFile(*sarifFlag, sarif, 0o644); err != nil {
			return 2, err
		}
	}

	if *jsonFlag {
		// counts carries one entry per registered analyzer (plus the
		// "directive" pseudo-analyzer), zero included: dashboards diffing
		// runs must see "framecap: 0", not a missing key.
		counts := map[string]int{"directive": 0}
		for _, a := range analyzers {
			counts[a.Name] = 0
		}
		for _, d := range diags {
			counts[d.Analyzer]++
		}
		doc := obs.Document{
			Provenance: obs.CollectProvenance("unifvet", "", 0, patterns),
			Results: map[string]any{
				"findings": diags,
				"clean":    len(diags) == 0,
				"counts":   counts,
			},
		}
		if err := doc.WriteJSON(stdout); err != nil {
			return 2, err
		}
	} else if *sarifFlag != "-" {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		return 1, nil
	}
	return 0, nil
}
