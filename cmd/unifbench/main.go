// Command unifbench regenerates the experiment tables E1–E15 that
// reproduce every theorem of "Distributed Uniformity Testing" (PODC 2018).
// See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results.
//
// Usage:
//
//	unifbench [-mode quick|full] [-run E1,E3,...] [-csv|-markdown|-json]
//	          [-seed N] [-workers N] [-list] [-journal run.jsonl]
//	          [-obs-addr :9090] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -json emits one machine-readable run document (provenance, per-experiment
// tables with durations and metric deltas, and the full metrics snapshot)
// instead of rendered tables. -journal streams per-experiment and per-round
// simulation events as JSON Lines while the run progresses. The profiling
// flags wrap the whole run with runtime/pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/unifdist/unifdist/internal/experiment"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/obs/export"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "unifbench:", err)
		os.Exit(1)
	}
}

// obsReady is called with the bound obs-server address once it is
// listening; tests override it to discover a ":0" port.
var obsReady = func(string) {}

// experimentResult is one experiment's entry in the -json document.
type experimentResult struct {
	*experiment.Table
	DurationMS float64       `json:"duration_ms"`
	Metrics    *obs.Snapshot `json:"metrics,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("unifbench", flag.ContinueOnError)
	var (
		modeFlag    = fs.String("mode", "quick", "experiment scale: quick or full")
		runFlag     = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		csvFlag     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		mdFlag      = fs.Bool("markdown", false, "emit markdown tables instead of aligned text")
		jsonFlag    = fs.Bool("json", false, "emit one machine-readable run document (tables + provenance + metrics)")
		seedFlag    = fs.Uint64("seed", 1, "root random seed")
		workersFlag = fs.Int("workers", 0, "worker goroutines for sweep rows and trial batches (0 = GOMAXPROCS; tables are identical at any value)")
		listFlag    = fs.Bool("list", false, "list experiments and exit")
		journalFlag = fs.String("journal", "", "write per-experiment and per-round events to this JSONL file")
		obsAddr     = fs.String("obs-addr", "", "serve live /metrics, /healthz, /runz and pprof on this address while the experiments run")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listFlag {
		for _, e := range experiment.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Description)
		}
		return nil
	}

	var mode experiment.Mode
	switch *modeFlag {
	case "quick":
		mode = experiment.Quick
	case "full":
		mode = experiment.Full
	default:
		return fmt.Errorf("unknown mode %q (want quick or full)", *modeFlag)
	}

	var selected []experiment.Experiment
	if *runFlag == "" {
		selected = experiment.All()
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiment.Lookup(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	// Telemetry is attached only when some sink will consume it; the
	// default table-rendering path stays zero-overhead.
	prov := obs.CollectProvenance("unifbench", mode.String(), *seedFlag, args)
	prov.Workers = *workersFlag
	var (
		reg     *obs.Registry
		journal *obs.Journal
	)
	if *jsonFlag || *journalFlag != "" || *obsAddr != "" {
		reg = obs.NewRegistry()
	}
	if *journalFlag != "" {
		var err error
		if journal, err = obs.OpenJournal(*journalFlag); err != nil {
			return err
		}
		defer journal.Close()
		journal.Write(struct {
			Kind       string         `json:"kind"`
			Provenance obs.Provenance `json:"provenance"`
		}{Kind: "run_start", Provenance: prov})
	}
	if *obsAddr != "" {
		// Copy the provenance by value: the run loop fills in WallMS later
		// while /runz handlers may be reading.
		provCopy := prov
		srv := export.New(reg, export.WithRunz(func() any {
			return map[string]any{
				"provenance": provCopy,
				"metrics":    reg.Snapshot(),
			}
		}))
		bound, err := srv.Start(*obsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "unifbench: obs server listening on http://%s\n", bound)
		obsReady(bound)
	}

	start := time.Now()
	var results []experimentResult
	for _, e := range selected {
		ctx := &experiment.RunContext{Mode: mode, Seed: *seedFlag, Workers: *workersFlag, Obs: reg, Journal: journal}
		res, err := e.Execute(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *jsonFlag {
			er := experimentResult{
				Table:      res.Table,
				DurationMS: float64(res.Duration.Microseconds()) / 1e3,
			}
			if !res.Metrics.Empty() {
				m := res.Metrics
				er.Metrics = &m
			}
			results = append(results, er)
			continue
		}
		if *csvFlag {
			if err := res.Table.RenderCSV(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
			continue
		}
		if *mdFlag {
			if err := res.Table.RenderMarkdown(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
			continue
		}
		if err := res.Table.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(%s completed in %v, mode=%s)\n\n", e.ID, res.Duration.Round(time.Millisecond), mode)
	}
	prov.WallMS = float64(time.Since(start).Microseconds()) / 1e3

	journal.Write(struct {
		Kind   string  `json:"kind"`
		WallMS float64 `json:"wall_ms"`
	}{Kind: "run_end", WallMS: prov.WallMS})
	if err := journal.Err(); err != nil {
		return err
	}

	if *jsonFlag {
		doc := obs.Document{
			Provenance: prov,
			Results:    map[string]any{"experiments": results},
		}
		snap := reg.Snapshot()
		doc.Metrics = &snap
		if err := doc.WriteJSON(stdout); err != nil {
			return err
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}
