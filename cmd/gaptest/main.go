// Command gaptest runs a centralized uniformity tester on synthetic
// samples and reports empirical acceptance statistics against the paper's
// guarantees.
//
// Usage:
//
//	gaptest [-tester single|amplified|counting] [-n 65536] [-delta 0.05]
//	        [-eps 1.0] [-m 3] [-dist uniform|twobump|zipf|halfsupport]
//	        [-trials 10000] [-seed 1] [-json] [-journal run.jsonl]
//	gaptest -stdin [-tester ...] [-n 65536]   # read whitespace-separated samples
//
// With -stdin, samples are read as whitespace-separated integers in
// [0, n) and the tester runs once on consecutive windows of its sample
// size, reporting the fraction of rejecting windows.
//
// -json replaces the text report with the same machine-readable run
// document the other commands emit (provenance + results); -journal
// records run start/end events as JSON Lines.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gaptest:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gaptest", flag.ContinueOnError)
	var (
		testerName = fs.String("tester", "single", "single, amplified or counting")
		n          = fs.Int("n", 1<<16, "domain size")
		delta      = fs.Float64("delta", 0.05, "completeness error δ of A_δ")
		eps        = fs.Float64("eps", 1.0, "L1 distance parameter")
		m          = fs.Int("m", 3, "repetitions (amplified tester)")
		distName   = fs.String("dist", "twobump", "uniform, twobump, zipf or halfsupport")
		trials     = fs.Int("trials", 10000, "number of independent runs")
		seed       = fs.Uint64("seed", 1, "random seed")
		stdin      = fs.Bool("stdin", false, "read samples from standard input instead of generating them")
		jsonFlag   = fs.Bool("json", false, "emit a machine-readable run document instead of text")
		jrnlFlag   = fs.String("journal", "", "write run events to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	out := stdout
	if *jsonFlag {
		out = io.Discard
	}
	results := map[string]any{"tester": *testerName}

	var (
		tst tester.Tester
		err error
	)
	switch *testerName {
	case "single":
		var sc *tester.BlockCollision
		sc, err = tester.NewSingleCollision(*n, *delta, *eps)
		if err == nil {
			p := sc.Params()
			fmt.Fprintf(out, "single-collision tester A_δ: s=%d, realized δ=%.4g, γ=%.4g, gap=%.4g, rigorous=%v\n",
				p.S, p.Delta, p.Gamma, p.Alpha, p.Rigorous)
			results["params"] = p
			tst = sc
		}
	case "amplified":
		var am *tester.BlockCollision
		am, err = tester.NewAmplified(*n, *delta, *eps, *m)
		if err == nil {
			fmt.Fprintf(out, "amplified tester: m=%d, samples=%d, completeness error=%.4g, gap=%.4g\n",
				am.Repetitions(), am.SampleSize(), am.CompletenessError(), am.Gap())
			results["params"] = map[string]any{
				"m": am.Repetitions(), "samples": am.SampleSize(),
				"delta": am.CompletenessError(), "gap": am.Gap(),
			}
			tst = am
		}
	case "counting":
		var cc *tester.CollisionCounting
		cc, err = tester.NewCollisionCounting(*n, *eps, 0)
		if err == nil {
			fmt.Fprintf(out, "collision-counting baseline: s=%d, threshold=%.4g\n",
				cc.SampleSize(), cc.Threshold())
			results["params"] = map[string]any{"samples": cc.SampleSize(), "threshold": cc.Threshold()}
			tst = cc
		}
	default:
		return fmt.Errorf("unknown tester %q", *testerName)
	}
	if err != nil {
		return err
	}

	prov := obs.CollectProvenance("gaptest", *testerName, *seed, args)
	var journal *obs.Journal
	if *jrnlFlag != "" {
		journal, err = obs.OpenJournal(*jrnlFlag)
		if err != nil {
			return err
		}
		defer journal.Close()
		journal.Write(struct {
			Kind       string         `json:"kind"`
			Provenance obs.Provenance `json:"provenance"`
		}{Kind: "run_start", Provenance: prov})
	}
	start := time.Now()

	if *stdin {
		windows, rejects, err := runOnStdin(tst, *n, out)
		if err != nil {
			return err
		}
		results["windows"] = windows
		results["rejecting_windows"] = rejects
	} else {
		d, err := dist.ByName(*distName, *n, *eps, *seed)
		if err != nil {
			return err
		}
		r := rng.New(*seed)
		fmt.Fprintf(out, "input: %s (distance from uniform: %.4g)\n", d.Name(), dist.L1FromUniform(d))
		rej := tester.EstimateRejectProb(tst, d, *trials, r)
		fmt.Fprintf(out, "rejection probability over %d trials: %.4f\n", *trials, rej)
		u := dist.NewUniform(*n)
		rejU := tester.EstimateRejectProb(tst, u, *trials, r)
		fmt.Fprintf(out, "rejection probability on uniform:     %.4f\n", rejU)
		if rejU > 0 {
			fmt.Fprintf(out, "empirical gap: %.3f\n", rej/rejU)
		}
		results["input"] = map[string]any{"dist": d.Name(), "n": *n, "l1_from_uniform": dist.L1FromUniform(d)}
		results["trials"] = *trials
		results["reject_prob"] = rej
		results["reject_prob_uniform"] = rejU
		if rejU > 0 {
			results["empirical_gap"] = rej / rejU
		}
	}
	prov.WallMS = float64(time.Since(start).Microseconds()) / 1e3

	if journal != nil {
		journal.Write(struct {
			Kind   string  `json:"kind"`
			WallMS float64 `json:"wall_ms"`
		}{Kind: "run_end", WallMS: prov.WallMS})
		if err := journal.Err(); err != nil {
			return err
		}
	}
	if *jsonFlag {
		return obs.Document{Provenance: prov, Results: results}.WriteJSON(stdout)
	}
	return nil
}

// runOnStdin slides the tester over consecutive windows of piped samples.
func runOnStdin(tst tester.Tester, n int, out io.Writer) (windows, rejects int, err error) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	scanner.Split(bufio.ScanWords)
	var samples []int
	for scanner.Scan() {
		v, err := strconv.Atoi(scanner.Text())
		if err != nil {
			return 0, 0, fmt.Errorf("parse sample %q: %w", scanner.Text(), err)
		}
		if v < 0 || v >= n {
			return 0, 0, fmt.Errorf("sample %d outside domain [0, %d)", v, n)
		}
		samples = append(samples, v)
	}
	if err := scanner.Err(); err != nil {
		return 0, 0, err
	}
	s := tst.SampleSize()
	if len(samples) < s {
		return 0, 0, fmt.Errorf("got %d samples, tester needs at least %d", len(samples), s)
	}
	for i := 0; i+s <= len(samples); i += s {
		windows++
		if !tst.Test(samples[i:i+s], nil) {
			rejects++
		}
	}
	fmt.Fprintf(out, "%d samples -> %d windows of %d\n", len(samples), windows, s)
	fmt.Fprintf(out, "rejecting windows: %d/%d (%.3f)\n", rejects, windows, float64(rejects)/float64(windows))
	return windows, rejects, nil
}
