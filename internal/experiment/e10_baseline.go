package experiment

import (
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
	"github.com/unifdist/unifdist/internal/zeroround"
)

func init() {
	register(Experiment{
		ID:          "E10",
		Description: "baseline: centralized Θ(√n/ε²) collision counting vs the distributed threshold tester",
		Run:         runE10,
	})
}

// runE10 compares the classical centralized tester with the paper's
// distributed threshold tester: per-node samples shrink by ~√k while the
// network-wide total pays a constant-factor premium.
func runE10(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	trials := 60
	if mode == Full {
		trials = 300
	}
	const (
		eps = 1.0
		k   = 8000
	)
	t := &Table{
		ID:    "E10",
		Title: "centralized baseline vs distributed threshold tester (ε=1, k=8000)",
		Columns: []string{
			"n", "s central", "s/node dist", "node saving", "total dist",
			"total/central", "errU cen", "errFar cen", "errU dist", "errFar dist",
		},
	}
	ns := []int{1 << 14, 1 << 16, 1 << 18}
	rows, err := ctx.RunRows(rng.New(seed), len(ns), func(row int, r *rng.RNG) ([]string, error) {
		n := ns[row]
		cc, err := tester.NewCollisionCounting(n, eps, 0)
		if err != nil {
			return nil, err
		}
		cfg, err := zeroround.SolveThreshold(n, k, eps)
		if err != nil {
			return nil, err
		}
		nw, err := zeroround.BuildThreshold(cfg)
		if err != nil {
			return nil, err
		}
		nw.Obs = ctx.Registry()
		nw.Workers = ctx.Workers
		far := dist.NewTwoBump(n, eps, r.Uint64())
		errUC := tester.EstimateRejectProb(cc, dist.NewUniform(n), trials, r)
		errFC := 1 - tester.EstimateRejectProb(cc, far, trials, r)
		errUD := nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
		errFD := nw.EstimateErrorAt(far, false, trials, r.Uint64())
		total := nw.TotalSamples()
		return []string{
			fmtFloat(float64(n)), fmtFloat(float64(cc.SampleSize())),
			fmtFloat(float64(cfg.SamplesPerNode)),
			fmtFloat(float64(cc.SampleSize()) / float64(cfg.SamplesPerNode)),
			fmtFloat(float64(total)),
			fmtFloat(float64(total) / float64(cc.SampleSize())),
			fmtProb(errUC), fmtProb(errFC), fmtProb(errUD), fmtProb(errFD),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRows(rows)
	t.AddNote("crossover: distributing wins on per-node samples (≈√k saving) and loses a constant factor in total samples")
	t.AddNote("central errors are (reject uniform, accept far); distributed are network errors; %d trials each", trials)
	return t, nil
}
