package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/unifdist/unifdist/internal/experiment"
	"github.com/unifdist/unifdist/internal/obs"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownMode(t *testing.T) {
	err := run([]string{"-mode", "bogus"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-run", "E99"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunSingleExperimentCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run([]string{"-run", "E11", "-csv"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperimentMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run([]string{"-run", "E12", "-markdown"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunJSONDocument is the acceptance flow: -json -journal must produce a
// parseable document with provenance and per-experiment metrics, and a
// journal with per-round simnet events for the CONGEST experiments.
func TestRunJSONDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	journalPath := filepath.Join(t.TempDir(), "run.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-run", "E6,E9", "-json", "-journal", journalPath, "-seed", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance struct {
			Tool       string `json:"tool"`
			Seed       uint64 `json:"seed"`
			GoVersion  string `json:"go_version"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			Start      string `json:"start"`
			WallMS     float64
		} `json:"provenance"`
		Results struct {
			Experiments []struct {
				ID         string     `json:"id"`
				Columns    []string   `json:"columns"`
				Rows       [][]string `json:"rows"`
				DurationMS float64    `json:"duration_ms"`
				Metrics    *struct {
					Counters map[string]int64 `json:"counters"`
				} `json:"metrics"`
			} `json:"experiments"`
		} `json:"results"`
		Metrics *struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("document not parseable: %v\n%s", err, buf.String())
	}
	if doc.Provenance.Tool != "unifbench" || doc.Provenance.Seed != 3 || doc.Provenance.GoVersion == "" {
		t.Errorf("provenance = %+v", doc.Provenance)
	}
	if len(doc.Results.Experiments) != 2 {
		t.Fatalf("got %d experiments, want 2", len(doc.Results.Experiments))
	}
	e6 := doc.Results.Experiments[0]
	if e6.ID != "E6" || len(e6.Rows) == 0 || e6.DurationMS <= 0 {
		t.Errorf("E6 entry = %+v", e6)
	}
	if e6.Metrics == nil || e6.Metrics.Counters["simnet.messages"] == 0 {
		t.Error("E6 entry missing per-experiment simnet metrics")
	}
	if doc.Metrics == nil || doc.Metrics.Counters["experiment.runs"] != 2 {
		t.Errorf("run-level metrics missing: %+v", doc.Metrics)
	}

	// Journal: every line parses; per-round simnet events present for E6.
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		kinds[ev.Kind]++
	}
	if kinds["run_start"] != 1 || kinds["run_end"] != 1 {
		t.Errorf("journal run events = %v", kinds)
	}
	if kinds["experiment_start"] != 2 || kinds["experiment_end"] != 2 {
		t.Errorf("journal experiment events = %v", kinds)
	}
	if kinds["sim_round"] == 0 || kinds["sim_run_end"] == 0 {
		t.Errorf("no per-round simnet events: %v", kinds)
	}
}

// TestEachSinkAlone attaches one telemetry sink at a time to E6, whose
// simulations take the SimTracer path, and E10, which sets Network.Obs:
// -json alone (a registry, no journal), -journal alone and -obs-addr
// alone. Each run's tables must be the plain run's, timing lines and
// telemetry notes aside, and what the sink wrote must parse.
func TestEachSinkAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runWith := func(t *testing.T, flags ...string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := run(append(flags, "-run", "E6,E10", "-seed", "3"), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := tableText(runWith(t))

	t.Run("json", func(t *testing.T) {
		var doc struct {
			Results struct {
				Experiments []experiment.Table `json:"experiments"`
			} `json:"results"`
			Metrics *obs.Snapshot `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(runWith(t, "-json")), &doc); err != nil {
			t.Fatalf("document not parseable: %v", err)
		}
		if doc.Metrics == nil || doc.Metrics.Counters["experiment.runs"] != 2 {
			t.Errorf("run-level metrics = %+v", doc.Metrics)
		}
		var text strings.Builder
		for _, tbl := range doc.Results.Experiments {
			if err := tbl.Render(&text); err != nil {
				t.Fatal(err)
			}
			text.WriteString("\n")
		}
		if got := tableText(text.String()); got != want {
			t.Errorf("document tables differ from the plain run:\n%s\nwant:\n%s", got, want)
		}
	})
	t.Run("journal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if got := tableText(runWith(t, "-journal", path)); got != want {
			t.Errorf("tables differ from the plain run:\n%s\nwant:\n%s", got, want)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var ev struct {
				Kind string `json:"kind"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad journal line %q: %v", line, err)
			}
			kinds[ev.Kind]++
		}
		if kinds["run_end"] != 1 || kinds["experiment_end"] != 2 || kinds["sim_round"] == 0 {
			t.Errorf("journal kinds = %v", kinds)
		}
	})
	t.Run("obs-addr", func(t *testing.T) {
		if got := tableText(runWith(t, "-obs-addr", "127.0.0.1:0")); got != want {
			t.Errorf("tables differ from the plain run:\n%s\nwant:\n%s", got, want)
		}
	})
}

// tableText drops the lines of rendered output that vary with timing or
// with the attached telemetry: "completed in" lines and telemetry notes.
func tableText(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, " completed in ") || strings.HasPrefix(line, "note: telemetry: ") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

func TestRunProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	if err := run([]string{"-run", "E9", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s empty", p)
		}
	}
}
