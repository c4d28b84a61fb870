package experiment

import (
	"math"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
	"github.com/unifdist/unifdist/internal/zeroround"
)

func init() {
	register(Experiment{
		ID:          "E2",
		Description: "Theorem 1.1: 0-round AND-rule tester — per-node samples vs network size",
		Run:         runE2,
	})
}

// runE2 sweeps k at fixed (n, ε, p) and reports the solver's per-node
// sample count against a solo tester's, plus the measured network error on
// both sides.
func runE2(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	trials := 25
	ks := []int{1000, 4000, 10000, 40000}
	if mode == Full {
		trials = 120
		ks = []int{1000, 4000, 10000, 40000, 160000}
	}
	const (
		n   = 1 << 20
		eps = 1.0
		p   = 1.0 / 3
	)
	solo, err := tester.SolveGap(n, 0.5, eps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E2",
		Title: "AND-rule 0-round tester (n=2^20, ε=1, p=1/3)",
		Columns: []string{
			"k", "m", "s/node", "s solo", "saving", "node gap", "C_p", "feasible",
			"err|U", "err|far",
		},
	}
	rows, err := ctx.RunRows(rng.New(seed), len(ks), func(row int, r *rng.RNG) ([]string, error) {
		k := ks[row]
		cfg, err := zeroround.SolveAND(n, k, eps, p)
		if err != nil {
			return nil, err
		}
		nw, err := zeroround.BuildAND(cfg)
		if err != nil {
			return nil, err
		}
		nw.Obs = ctx.Registry()
		nw.Workers = ctx.Workers
		errU := nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
		errFar := nw.EstimateErrorAt(dist.NewTwoBump(n, eps, r.Uint64()), false, trials, r.Uint64())
		return []string{
			fmtFloat(float64(k)), fmtFloat(float64(cfg.M)),
			fmtFloat(float64(cfg.SamplesPerNode)), fmtFloat(float64(solo.S)),
			fmtFloat(float64(solo.S) / float64(cfg.SamplesPerNode)),
			fmtFloat(cfg.NodeGap), fmtFloat(cfg.RequiredGap), fmtBool(cfg.Feasible),
			fmtProb(errU), fmtProb(errFar),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRows(rows)
	t.AddNote("paper: s = Θ((C_p/ε²)·√(n/k^{Θ(ε²/C_p)})) per node; error ≤ p in the feasible regime")
	t.AddNote("the solver spends the full completeness budget, so err|U ≈ p = 1/3 by design (not a failure)")
	t.AddNote("s solo = Θ(√n/ε²) is one node testing alone; saving = solo/s per node")
	t.AddNote("predicted scaling at m=2: s ∝ k^{-1/4}: k×4 ⇒ s×%.2f", math.Pow(4, -0.25))
	t.AddNote("%d trials per error cell", trials)
	return t, nil
}
