// Command congestsim runs one CONGEST (or LOCAL) distributed uniformity
// test on a chosen topology and prints the execution summary: elected
// root, packages formed, rejecting virtual nodes, rounds, and message
// accounting.
//
// Usage:
//
//	congestsim [-model congest|local] [-topology random|line|ring|grid|star|tree]
//	           [-k 2000] [-n 4096] [-eps 1.0] [-dist uniform|twobump|zipf|halfsupport]
//	           [-seed 1] [-packaging] [-tau 0] [-radius 0] [-workers 0]
//	           [-trace] [-json] [-journal run.jsonl]
//
// -json replaces the human-readable summary with the same machine-readable
// run document unifbench -json emits (provenance + results + metrics);
// -journal streams per-round simulation events as JSON Lines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/unifdist/unifdist/internal/congest"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/local"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
	"github.com/unifdist/unifdist/internal/tester"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "congestsim:", err)
		os.Exit(1)
	}
}

// sinks bundles the run's output targets: the human-readable writer (nil in
// -json mode), the optional tracers, and the machine-readable document.
type sinks struct {
	out     io.Writer // nil when -json suppresses the running commentary
	summary *simnet.SummaryTracer
	reg     *obs.Registry
	journal *obs.Journal
}

func (s *sinks) printf(format string, args ...any) {
	if s.out != nil {
		fmt.Fprintf(s.out, format, args...)
	}
}

// tracer assembles the simnet tracer feeding every attached sink.
func (s *sinks) tracer(run string, budget int) simnet.Tracer {
	var ts []simnet.Tracer
	if s.summary != nil {
		ts = append(ts, s.summary)
	}
	if s.reg != nil {
		ts = append(ts, simnet.NewMetricsTracer(s.reg, budget))
	}
	if s.journal != nil {
		ts = append(ts, simnet.NewJSONLTracer(s.journal, run, budget))
	}
	return simnet.MultiTracer(ts...)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("congestsim", flag.ContinueOnError)
	var (
		model    = fs.String("model", "congest", "congest or local")
		topology = fs.String("topology", "random", "random, line, ring, grid, star or tree")
		k        = fs.Int("k", 2000, "number of network nodes")
		n        = fs.Int("n", 4096, "domain size")
		eps      = fs.Float64("eps", 1.0, "L1 distance parameter")
		distName = fs.String("dist", "uniform", "uniform, twobump, zipf or halfsupport")
		seed     = fs.Uint64("seed", 1, "random seed")
		pkgOnly  = fs.Bool("packaging", false, "run τ-token packaging only (Theorem 5.1)")
		tau      = fs.Int("tau", 0, "package size (0 = solver's choice)")
		radius   = fs.Int("radius", 0, "LOCAL gathering radius (0 = solver's choice)")
		workers  = fs.Int("workers", 0, "simulator worker-pool size for the CONGEST model (0 = GOMAXPROCS); output is identical at any value")
		trace    = fs.Bool("trace", false, "print a per-round traffic summary (CONGEST model)")
		jsonFlag = fs.Bool("json", false, "emit a machine-readable run document instead of text")
		jrnlFlag = fs.String("journal", "", "write per-round events to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := buildTopology(*topology, *k, *seed)
	if err != nil {
		return err
	}
	d, err := dist.ByName(*distName, *n, *eps, *seed)
	if err != nil {
		return err
	}
	r := rng.New(*seed)
	tokens := make([]uint64, g.N())
	for i := range tokens {
		tokens[i] = uint64(d.Sample(r))
	}

	s := &sinks{out: stdout}
	if *jsonFlag {
		s.out = nil
		s.reg = obs.NewRegistry()
	}
	if *trace || *jsonFlag {
		s.summary = &simnet.SummaryTracer{}
	}
	prov := obs.CollectProvenance("congestsim", *model, *seed, args)
	if *jrnlFlag != "" {
		journal, err := obs.OpenJournal(*jrnlFlag)
		if err != nil {
			return err
		}
		defer journal.Close()
		s.journal = journal
		journal.Write(struct {
			Kind       string         `json:"kind"`
			Provenance obs.Provenance `json:"provenance"`
		}{Kind: "run_start", Provenance: prov})
	}

	s.printf("topology: %s (k=%d, D=%d)\n", g.Name(), g.N(), g.Diameter())
	s.printf("input: %s (true distance from uniform: %.4g)\n", d.Name(), dist.L1FromUniform(d))

	start := time.Now()
	var results map[string]any
	switch *model {
	case "congest":
		results, err = runCongest(g, tokens, *n, *k, *eps, *tau, *workers, *pkgOnly, s)
	case "local":
		results, err = runLocal(g, tokens, *n, *k, *eps, *radius, s, r)
	default:
		err = fmt.Errorf("unknown model %q", *model)
	}
	if err != nil {
		return err
	}
	prov.WallMS = float64(time.Since(start).Microseconds()) / 1e3

	if s.journal != nil {
		s.journal.Write(struct {
			Kind   string  `json:"kind"`
			WallMS float64 `json:"wall_ms"`
		}{Kind: "run_end", WallMS: prov.WallMS})
		if err := s.journal.Err(); err != nil {
			return err
		}
	}
	if *jsonFlag {
		results["topology"] = map[string]any{"name": g.Name(), "k": g.N(), "diameter": g.Diameter()}
		results["input"] = map[string]any{"dist": d.Name(), "n": *n, "l1_from_uniform": dist.L1FromUniform(d)}
		if s.summary != nil {
			results["rounds"] = s.summary.Rounds()
		}
		doc := obs.Document{Provenance: prov, Results: results}
		if s.reg != nil {
			snap := s.reg.Snapshot()
			doc.Metrics = &snap
		}
		return doc.WriteJSON(stdout)
	}
	return nil
}

func runCongest(g *graph.Graph, tokens []uint64, n, k int, eps float64, tau, workers int, pkgOnly bool, s *sinks) (map[string]any, error) {
	opt := congest.Options{Tracer: s.tracer("congestsim", congest.Bandwidth()), Workers: workers}
	dumpTrace := func() error {
		if s.summary == nil || s.out == nil {
			return nil
		}
		fmt.Fprintln(s.out, "\nper-round traffic:")
		return s.summary.Dump(s.out)
	}
	if pkgOnly {
		if tau == 0 {
			tau = 8
		}
		res, err := congest.RunTokenPackaging(g, tokens, tau, opt)
		if err != nil {
			return nil, err
		}
		s.printf("token packaging: τ=%d\n", tau)
		s.printf("  root (max ID): %d\n", res.Root)
		s.printf("  packages: %d, discarded: %d (≤ τ−1 = %d)\n", len(res.Packages), res.Discarded, tau-1)
		s.printf("  rounds: %d, messages: %d, bytes: %d, max message: %dB\n",
			res.Stats.Rounds, res.Stats.Messages, res.Stats.Bytes, res.Stats.MaxMessageBytes)
		return map[string]any{
			"mode":      "packaging",
			"tau":       tau,
			"root":      res.Root,
			"packages":  len(res.Packages),
			"discarded": res.Discarded,
			"stats":     res.Stats,
		}, dumpTrace()
	}
	p, err := congest.SolveParamsCalibrated(n, k, eps)
	if err != nil {
		return nil, err
	}
	if tau != 0 && tau != p.Tau {
		// Re-derive the per-package error and threshold for the overridden
		// package size (midpoint between the expected rejecting-package
		// counts under uniform and far inputs).
		p.Tau = tau
		p.Delta = float64(tau) * float64(tau-1) / (2 * float64(n))
		ell := k / tau
		pU := 1 - tester.UniformNoCollisionProb(n, tau)
		pF := tester.FarRejectPoisson(n, tau, eps)
		p.EtaUniform = float64(ell) * pU
		p.EtaFar = float64(ell) * pF
		p.T = int((p.EtaUniform+p.EtaFar)/2) + 1
		p.VirtualNodes = ell
		p.Feasible = false // overridden by hand; no solver guarantee
	}
	s.printf("params: τ=%d, T=%d, δ=%.4g, feasible=%v, calibrated=%v\n",
		p.Tau, p.T, p.Delta, p.Feasible, p.Calibrated)
	res, err := congest.RunUniformity(g, tokens, p, opt)
	if err != nil {
		return nil, err
	}
	verdict := "UNIFORM (accept)"
	if !res.Accept {
		verdict = "FAR FROM UNIFORM (reject)"
	}
	s.printf("verdict: %s\n", verdict)
	s.printf("  root: %d, rejecting packages: %d/%d (threshold T=%d)\n",
		res.Root, res.Rejects, res.Virtuals, p.T)
	s.printf("  rounds: %d, messages: %d, bytes: %d, max message: %dB\n",
		res.Stats.Rounds, res.Stats.Messages, res.Stats.Bytes, res.Stats.MaxMessageBytes)
	return map[string]any{
		"mode":     "uniformity",
		"params":   p,
		"accept":   res.Accept,
		"root":     res.Root,
		"rejects":  res.Rejects,
		"virtuals": res.Virtuals,
		"stats":    res.Stats,
	}, dumpTrace()
}

func runLocal(g *graph.Graph, tokens []uint64, n, k int, eps float64, radius int, s *sinks, r *rng.RNG) (map[string]any, error) {
	p := local.Params{N: n, K: k, Eps: eps, P: 1.0 / 3, R: radius}
	if radius == 0 {
		solved, err := local.SolveLocal(n, k, eps, 1.0/3)
		if err != nil {
			return nil, err
		}
		p = solved
	}
	if p.AND.M == 0 {
		p.AND.M = 1
	}
	s.printf("params: r=%d, virtual nodes ≤ %d, m=%d, feasible=%v\n",
		p.R, 2*k/maxInt(p.R, 1), p.AND.M, p.Feasible)
	res, err := local.RunUniformity(g, tokens, p, r.Uint64())
	if err != nil {
		return nil, err
	}
	verdict := "UNIFORM (accept)"
	if !res.Accept {
		verdict = "FAR FROM UNIFORM (reject)"
	}
	s.printf("verdict: %s\n", verdict)
	s.printf("  MIS nodes: %d, rejecting: %d\n", res.MISNodes, res.Rejecting)
	s.printf("  samples per MIS node: min %d, max %d (guarantee ≥ r/2 = %d)\n",
		res.MinSamples, res.MaxSamples, p.R/2)
	s.printf("  total cost: %d G-rounds\n", res.GRounds)
	return map[string]any{
		"mode":        "local",
		"params":      p,
		"accept":      res.Accept,
		"mis_nodes":   res.MISNodes,
		"rejecting":   res.Rejecting,
		"min_samples": res.MinSamples,
		"max_samples": res.MaxSamples,
		"g_rounds":    res.GRounds,
	}, nil
}

func buildTopology(name string, k int, seed uint64) (*graph.Graph, error) {
	switch name {
	case "random":
		return graph.NewRandomConnected(k, 6.0/float64(k), seed), nil
	case "line":
		return graph.NewLine(k), nil
	case "ring":
		return graph.NewRing(k), nil
	case "grid":
		cols := 1
		for cols*cols < k {
			cols++
		}
		rows := (k + cols - 1) / cols
		return graph.NewGrid(rows, cols), nil
	case "star":
		return graph.NewStar(k), nil
	case "tree":
		return graph.NewBalancedTree(k, 2), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
