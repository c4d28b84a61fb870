package experiment

import (
	"math"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/stats"
	"github.com/unifdist/unifdist/internal/zeroround"
)

func init() {
	register(Experiment{
		ID:          "E5",
		Description: "Section 4: asymmetric per-sample costs — C ∝ (√n/ε²)/‖T‖₂ (threshold) and ‖T‖₂ₘ (AND)",
		Run:         runE5,
	})
}

// runE5 builds asymmetric threshold testers for several cost vectors and
// verifies that the maximum individual cost tracks (√n/ε²)/‖T‖₂ while the
// error stays bounded; the AND variant's cost column uses ‖T‖₂ₘ.
func runE5(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	trials := 30
	if mode == Full {
		trials = 150
	}
	const (
		n   = 1 << 16
		k   = 8000
		eps = 1.0
		p   = 1.0 / 3
	)
	t := &Table{
		ID:    "E5",
		Title: "asymmetric-cost 0-round testers (n=2^16, k=8000, ε=1)",
		Columns: []string{
			"costs", "‖T‖₂", "C thr", "C·‖T‖₂/√n", "max sᵢ", "min sᵢ",
			"err|U", "err|far", "‖T‖₂ₘ", "C AND",
		},
	}
	vectors := []struct {
		name string
		gen  func(i int) float64
	}{
		{name: "unit", gen: func(int) float64 { return 1 }},
		{name: "two-class 1/4", gen: func(i int) float64 { return 1 + 3*float64(i%2) }},
		{name: "ramp 1..8", gen: func(i int) float64 { return 1 + 7*float64(i%k)/float64(k-1) }},
		{name: "power-law", gen: func(i int) float64 { return math.Pow(float64(i%k+1), 0.3) }},
	}
	rows, err := ctx.RunRows(rng.New(seed), len(vectors), func(row int, r *rng.RNG) ([]string, error) {
		vec := vectors[row]
		costs := make([]float64, k)
		inv := make([]float64, k)
		for i := range costs {
			costs[i] = vec.gen(i)
			inv[i] = 1 / costs[i]
		}
		cfg, err := zeroround.SolveAsymmetricThreshold(n, eps, costs)
		if err != nil {
			return nil, err
		}
		nw, err := zeroround.BuildAsymmetric(cfg)
		if err != nil {
			return nil, err
		}
		nw.Obs = ctx.Registry()
		nw.Workers = ctx.Workers
		errU := nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
		errFar := nw.EstimateErrorAt(dist.NewTwoBump(n, eps, r.Uint64()), false, trials, r.Uint64())
		maxS, minS := 0, math.MaxInt
		for _, s := range cfg.Samples {
			if s > maxS {
				maxS = s
			}
			if s < minS {
				minS = s
			}
		}
		andCfg, err := zeroround.SolveAsymmetricAND(n, eps, p, costs)
		if err != nil {
			return nil, err
		}
		norm2 := stats.LpNorm(inv, 2)
		return []string{
			vec.name, fmtFloat(norm2), fmtFloat(cfg.Cost),
			fmtFloat(cfg.Cost * norm2 / math.Sqrt(float64(n))),
			fmtFloat(float64(maxS)), fmtFloat(float64(minS)),
			fmtProb(errU), fmtProb(errFar),
			fmtFloat(andCfg.Norm), fmtFloat(andCfg.Cost),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRows(rows)
	t.AddNote("paper (threshold): C = Θ(√n/ε²)/‖T‖₂ — the C·‖T‖₂/√n column must be ~constant across cost vectors")
	t.AddNote("paper (AND): C = (ln 1/(1−p))^{1/2m}·m·√(2n)/‖T‖₂ₘ; unit costs give ‖T‖₂ = √k, recovering Theorem 1.2")
	t.AddNote("%d trials per error cell", trials)
	return t, nil
}
