// Package experiment defines the paper-reproduction experiments E1–E15
// (see DESIGN.md for the index) and renders their result tables. Each
// experiment regenerates one theorem's quantitative content as a
// paper-bound vs. measured table; cmd/unifbench runs them all and
// EXPERIMENTS.md records the outputs.
package experiment

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
	"github.com/unifdist/unifdist/internal/stats"
	"github.com/unifdist/unifdist/internal/trialpool"
)

// Mode selects the experiment scale.
type Mode int

const (
	// Quick is the CI-friendly scale: minutes for the full suite.
	Quick Mode = iota + 1
	// Full is the EXPERIMENTS.md scale: more trials, bigger regimes.
	Full
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Table is one experiment's rendered result. The json tags define the
// table's shape inside the -json run document.
type Table struct {
	// ID is the experiment identifier (e.g. "E3").
	ID string `json:"id"`
	// Title describes the reproduced result.
	Title string `json:"title"`
	// Columns are the header labels.
	Columns []string `json:"columns"`
	// Rows hold the formatted cells.
	Rows [][]string `json:"rows"`
	// Notes are free-form lines printed under the table.
	Notes []string `json:"notes,omitempty"`
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes an aligned text rendering.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len([]rune(cell))
			}
			parts[i] = cell + strings.Repeat(" ", pad)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, note := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderMarkdown writes a GitHub-flavored markdown table with the notes as
// a trailing list.
func (t *Table) RenderMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s: %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	row := func(cells []string) error {
		_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
		return err
	}
	if err := row(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	if err := row(sep); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := row(r); err != nil {
			return err
		}
	}
	for _, note := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n- %s", note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes a CSV rendering (no notes).
func (t *Table) RenderCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := make([]string, 0, len(t.Columns))
	for _, c := range t.Columns {
		row = append(row, esc(c))
	}
	if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		row = row[:0]
		for _, c := range r {
			row = append(row, esc(c))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// RunContext carries one experiment invocation's parameters and telemetry
// sinks. Either sink may be nil (that sink disabled); both are nil-safe, as
// are the helpers below, so experiment code never branches on them.
type RunContext struct {
	// Mode is the experiment scale, Seed the root random seed.
	Mode Mode
	Seed uint64
	// Workers bounds the experiment-level parallelism: the number of
	// concurrent sweep rows in RunRows and (threaded onto each Network) the
	// goroutines of the parallel trial engine. 0 means GOMAXPROCS. Tables
	// are bit-for-bit identical at any value.
	Workers int
	// Obs receives the run's metrics and Journal its events when attached.
	Obs     *obs.Registry
	Journal *obs.Journal
}

// NewRunContext builds a context with telemetry disabled.
func NewRunContext(mode Mode, seed uint64) *RunContext {
	return &RunContext{Mode: mode, Seed: seed}
}

// WorkerCount resolves Workers (0 or nil context = GOMAXPROCS).
func (c *RunContext) WorkerCount() int {
	if c == nil || c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// RunRows executes count independent sweep-row builders on the shared
// trial pool (internal/trialpool), concurrently up to WorkerCount, and
// returns the rows in index order. Each builder gets its own generator
// split deterministically from r before any goroutine starts — row i
// always receives the i-th split — so the table is identical whether rows
// run serially or interleaved. The first error (by row index) wins.
// Builders must not touch shared mutable state; telemetry through the
// registry is safe (its metrics are atomic).
func (c *RunContext) RunRows(r *rng.RNG, count int, fn func(row int, rr *rng.RNG) ([]string, error)) ([][]string, error) {
	gens := make([]*rng.RNG, count)
	for i := range gens {
		gens[i] = r.Split()
	}
	rows := make([][]string, count)
	_, err := trialpool.Count(count, c.WorkerCount(), func() func(int) (bool, error) {
		return func(i int) (bool, error) {
			var err error
			rows[i], err = fn(i, gens[i])
			return false, err
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// AddRows appends pre-built rows in order.
func (t *Table) AddRows(rows [][]string) {
	t.Rows = append(t.Rows, rows...)
}

// Registry returns the run's metrics registry (nil when disabled).
func (c *RunContext) Registry() *obs.Registry {
	if c == nil {
		return nil
	}
	return c.Obs
}

// Log writes one event to the run's journal (no-op when disabled).
func (c *RunContext) Log(event any) {
	if c != nil {
		c.Journal.Write(event)
	}
}

// SimTracer returns a simnet tracer that feeds the run's registry and
// journal, labeled with the experiment ID; budget is the CONGEST
// bytes-per-message cap for utilization reporting. Returns nil when
// telemetry is disabled, so callers can assign it to simnet configs (or
// pass it to the congest drivers' Traced variants) unconditionally.
func (c *RunContext) SimTracer(id string, budget int) simnet.Tracer {
	if c == nil {
		return nil
	}
	var tracers []simnet.Tracer
	if c.Obs != nil {
		tracers = append(tracers, simnet.NewMetricsTracer(c.Obs, budget))
	}
	if c.Journal != nil {
		tracers = append(tracers, simnet.NewJSONLTracer(c.Journal, id, budget))
	}
	return simnet.MultiTracer(tracers...)
}

// Runner executes one experiment.
type Runner func(ctx *RunContext) (*Table, error)

// Experiment couples an identifier with its runner.
type Experiment struct {
	// ID is the table identifier, Description the one-line summary shown
	// by cmd/unifbench -list.
	ID          string
	Description string
	Run         Runner
}

// RunResult couples a rendered table with the run's measured telemetry.
type RunResult struct {
	Table *Table
	// Duration is the experiment's wall time.
	Duration time.Duration
	// Metrics is the registry delta attributable to this experiment (empty
	// when telemetry is disabled).
	Metrics obs.Snapshot
}

// StartEvent opens an experiment in the JSONL journal.
type StartEvent struct {
	Kind string `json:"kind"` // "experiment_start"
	ID   string `json:"id"`
	Mode string `json:"mode"`
	Seed uint64 `json:"seed"`
}

// EndEvent closes an experiment in the JSONL journal.
type EndEvent struct {
	Kind       string  `json:"kind"` // "experiment_end"
	ID         string  `json:"id"`
	DurationMS float64 `json:"duration_ms"`
	Rows       int     `json:"rows"`
	Error      string  `json:"error,omitempty"`
}

// Execute runs the experiment under ctx, recording its duration and
// journal start/end events, and attributing the metric delta over the run
// to the result. When a registry is attached the delta is also appended to
// the table's notes, so rendered tables carry their own telemetry.
func (e Experiment) Execute(ctx *RunContext) (*RunResult, error) {
	if ctx == nil {
		ctx = NewRunContext(Quick, 1)
	}
	reg := ctx.Registry()
	before := reg.Snapshot()
	ctx.Log(StartEvent{Kind: "experiment_start", ID: e.ID, Mode: ctx.Mode.String(), Seed: ctx.Seed})
	//unifvet:allow wallclock experiment duration is telemetry (notes/journal), never a table value
	start := time.Now()
	tbl, err := e.Run(ctx)
	elapsed := time.Since(start) //unifvet:allow wallclock experiment duration is telemetry (notes/journal), never a table value
	reg.Counter("experiment.runs").Inc()
	reg.Histogram("experiment.duration_ns", obs.LatencyBuckets()).Observe(elapsed.Nanoseconds())
	end := EndEvent{Kind: "experiment_end", ID: e.ID, DurationMS: float64(elapsed.Microseconds()) / 1e3}
	if err != nil {
		end.Error = err.Error()
		ctx.Log(end)
		return nil, err
	}
	end.Rows = len(tbl.Rows)
	ctx.Log(end)
	delta := reg.Snapshot().Diff(before)
	if reg != nil && !delta.Empty() {
		for _, line := range delta.Lines() {
			tbl.AddNote("telemetry: %s", line)
		}
	}
	return &RunResult{Table: tbl, Duration: elapsed, Metrics: delta}, nil
}

// registry holds all experiments, populated by the e*.go files.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiment: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware: E2 before E10.
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// fmtFloat renders a float compactly for table cells.
func fmtFloat(v float64) string {
	return fmt.Sprintf("%.4g", v)
}

// fmtProb renders a probability.
func fmtProb(v float64) string {
	return fmt.Sprintf("%.3f", v)
}

// fmtErr renders an error rate estimated over trials with its 95% Wilson
// score interval.
func fmtErr(rate float64, trials int) string {
	lo, hi := stats.WilsonInterval(int(math.Round(rate*float64(trials))), trials, 1.96)
	return fmt.Sprintf("%.3f [%.3f, %.3f]", rate, lo, hi)
}

// fmtBool renders a feasibility flag.
func fmtBool(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}
