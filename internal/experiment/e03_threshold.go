package experiment

import (
	"math"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/zeroround"
)

func init() {
	register(Experiment{
		ID:          "E3",
		Description: "Theorem 1.2: 0-round threshold tester — s = Θ(√(n/k)/ε²), T = Θ(1/ε⁴)",
		Run:         runE3,
	})
}

// runE3 sweeps k at fixed (n, ε) and verifies the threshold tester's
// sample scaling and error bound.
func runE3(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	trials := 60
	ks := []int{2000, 8000, 32000}
	if mode == Full {
		trials = 300
		ks = []int{2000, 8000, 32000, 128000}
	}
	const (
		n   = 1 << 16
		eps = 1.0
	)
	t := &Table{
		ID:    "E3",
		Title: "threshold-rule 0-round tester (n=2^16, ε=1)",
		Columns: []string{
			"k", "δ", "s/node", "√(n/k)/ε²", "T", "ηU", "ηFar", "feasible",
			"err|U", "err|far",
		},
	}
	rows, err := ctx.RunRows(rng.New(seed), len(ks), func(row int, r *rng.RNG) ([]string, error) {
		k := ks[row]
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
		errU := nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
		errFar := nw.EstimateErrorAt(dist.NewTwoBump(n, eps, r.Uint64()), false, trials, r.Uint64())
		paperS := math.Sqrt(float64(n)/float64(k)) / (eps * eps)
		return []string{
			fmtFloat(float64(k)), fmtFloat(cfg.Delta),
			fmtFloat(float64(cfg.SamplesPerNode)), fmtFloat(paperS),
			fmtFloat(float64(cfg.T)), fmtFloat(cfg.EtaUniform), fmtFloat(cfg.EtaFar),
			fmtBool(cfg.Feasible), fmtProb(errU), fmtProb(errFar),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRows(rows)
	t.AddNote("paper: s = Θ(√(n/k)/ε²) per node and T = Θ(1/ε⁴) (k-independent), error ≤ 1/3")
	t.AddNote("T sits inside the eq. (5) window (ηU+√(3·ln3·ηU), ηFar−√(2·ln3·ηFar))")
	t.AddNote("%d trials per error cell", trials)
	return t, nil
}
