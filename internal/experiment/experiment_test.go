package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/unifdist/unifdist/internal/obs"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if got := len(All()); got != len(want) {
		t.Errorf("registry has %d experiments, want %d", got, len(want))
	}
}

func TestAllSortedNumerically(t *testing.T) {
	all := All()
	if all[0].ID != "E1" {
		t.Errorf("first experiment %s, want E1", all[0].ID)
	}
	if all[len(all)-1].ID != "E15" {
		t.Errorf("last experiment %s, want E15", all[len(all)-1].ID)
	}
	// E9 must come before E10 despite lexicographic order.
	idx := map[string]int{}
	for i, e := range all {
		idx[e.ID] = i
	}
	if idx["E9"] > idx["E10"] {
		t.Error("E9 sorted after E10")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "T",
		Title:   "test table",
		Columns: []string{"a", "long column"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("a note with %d", 42)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T: test table ==", "long column", "333", "note: a note with 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := &Table{
		ID:      "T",
		Columns: []string{"a", "b,with comma"},
	}
	tbl.AddRow("x\"y", "plain")
	var buf bytes.Buffer
	if err := tbl.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"b,with comma"`) {
		t.Errorf("comma not escaped: %s", out)
	}
	if !strings.Contains(out, `"x""y"`) {
		t.Errorf("quote not escaped: %s", out)
	}
}

func TestModeString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	register(Experiment{ID: "E1"})
}

// TestCheapExperimentsRun exercises the fast experiments end to end; the
// expensive ones run via cmd/unifbench and the root benchmarks.
func TestCheapExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range []string{"E1", "E6", "E9", "E11"} {
		if tbl, _ := quickTable(t, id); len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

// TestExecuteRecordsTelemetry runs a CONGEST experiment through Execute
// with full telemetry attached and checks the duration, metric delta,
// journal events, and per-round simnet events.
func TestExecuteRecordsTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, ok := Lookup("E6")
	if !ok {
		t.Fatal("E6 missing")
	}
	var buf bytes.Buffer
	ctx := &RunContext{
		Mode:    Quick,
		Seed:    1,
		Obs:     obs.NewRegistry(),
		Journal: obs.NewJournal(&buf),
	}
	res, err := e.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 {
		t.Errorf("duration = %v", res.Duration)
	}
	if res.Metrics.Counters["experiment.runs"] != 1 {
		t.Errorf("experiment.runs delta = %v", res.Metrics.Counters)
	}
	if res.Metrics.Counters["simnet.messages"] == 0 {
		t.Error("no simnet messages recorded for a CONGEST experiment")
	}
	// The metric delta must be visible on the rendered table.
	foundNote := false
	for _, note := range res.Table.Notes {
		if strings.Contains(note, "telemetry: simnet.messages") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Errorf("no telemetry note on table, notes: %v", res.Table.Notes)
	}
	// The journal must hold experiment_start/end plus per-round sim events.
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Kind string `json:"kind"`
			ID   string `json:"id"`
			Run  string `json:"run"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		kinds[ev.Kind]++
		if ev.Kind == "sim_round" && ev.Run != "E6" {
			t.Errorf("sim_round labeled %q", ev.Run)
		}
	}
	if kinds["experiment_start"] != 1 || kinds["experiment_end"] != 1 {
		t.Errorf("journal kinds = %v", kinds)
	}
	if kinds["sim_round"] == 0 || kinds["sim_run_end"] == 0 {
		t.Errorf("no per-round simnet events in journal: %v", kinds)
	}
}

// TestExecuteJournalAlone attaches a journal and no registry, a pairing
// the unifbench flags never build: the simulations still journal their
// rounds, and the table gains no telemetry notes.
func TestExecuteJournalAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, _ := Lookup("E6")
	var buf bytes.Buffer
	res, err := e.Execute(&RunContext{Mode: Quick, Seed: 1, Journal: obs.NewJournal(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.Empty() {
		t.Errorf("metrics without a registry: %+v", res.Metrics)
	}
	for _, note := range res.Table.Notes {
		if strings.Contains(note, "telemetry:") {
			t.Errorf("telemetry note without a registry: %s", note)
		}
	}
	if !strings.Contains(buf.String(), `"kind":"sim_round"`) {
		t.Error("no per-round simnet events in the journal")
	}
}

// TestZeroRoundTableReportsTrials runs E15 quick through Execute with a
// registry attached: every estimated trial must reach zeroround.trials
// (5 placements × 2 error cells × 120 trials) and the latency histogram.
func TestZeroRoundTableReportsTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, _ := Lookup("E15")
	res, err := e.Execute(&RunContext{Mode: Quick, Seed: 1, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	const want = 5 * 2 * 120
	if got := res.Metrics.Counters["zeroround.trials"]; got != want {
		t.Errorf("zeroround.trials = %d, want %d", got, want)
	}
	if got := res.Metrics.Histograms["zeroround.trial_ns"].Count; got != want {
		t.Errorf("zeroround.trial_ns count = %d, want %d", got, want)
	}
	if wrong := res.Metrics.Counters["zeroround.wrong"]; wrong < 0 || wrong > want {
		t.Errorf("zeroround.wrong = %d out of range", wrong)
	}
}

// TestExecuteDisabledTelemetry checks the disabled path leaves tables
// untouched.
func TestExecuteDisabledTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, _ := Lookup("E9")
	res, err := e.Execute(NewRunContext(Quick, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, note := range res.Table.Notes {
		if strings.Contains(note, "telemetry:") {
			t.Errorf("telemetry note with disabled recorder: %s", note)
		}
	}
	if !res.Metrics.Empty() {
		t.Errorf("metrics with disabled recorder: %+v", res.Metrics)
	}
}

func TestRunContextNilSafety(t *testing.T) {
	var ctx *RunContext
	if ctx.Registry() != nil {
		t.Error("nil context returned a registry")
	}
	ctx.Log(struct{}{})
	if tr := ctx.SimTracer("X", 16); tr != nil {
		t.Error("nil context returned a tracer")
	}
	if tr := NewRunContext(Quick, 1).SimTracer("X", 16); tr != nil {
		t.Error("disabled context returned a tracer")
	}
}

func TestFormattingHelpers(t *testing.T) {
	if fmtFloat(3.14159) != "3.142" {
		t.Errorf("fmtFloat = %s", fmtFloat(3.14159))
	}
	if fmtProb(0.5) != "0.500" {
		t.Errorf("fmtProb = %s", fmtProb(0.5))
	}
	if fmtBool(true) != "yes" || fmtBool(false) != "no" {
		t.Error("fmtBool wrong")
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tbl := &Table{
		ID:      "T",
		Title:   "md",
		Columns: []string{"a", "b"},
	}
	tbl.AddRow("1", "2")
	tbl.AddNote("hello")
	var buf bytes.Buffer
	if err := tbl.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### T: md", "| a | b |", "| --- | --- |", "| 1 | 2 |", "- hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
