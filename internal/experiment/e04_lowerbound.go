package experiment

import (
	"math"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/stats"
	"github.com/unifdist/unifdist/internal/tester"
	"github.com/unifdist/unifdist/internal/zeroround"
)

func init() {
	register(Experiment{
		ID:          "E4",
		Description: "Theorems 1.3/7.2: behavior below the Ω(√(n/k)) sample lower bound",
		Run:         runE4,
	})
}

// runE4 starves the threshold tester of samples: starting from a feasible
// configuration, the per-node sample count is scaled down and the error is
// measured. A simulation cannot prove a lower bound, but the trade-off the
// bound predicts — error climbing toward 1/2 as s drops below √(n/k) —
// must be visible. The note verifies Lemma 2.1's KL inequality on a grid.
func runE4(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	trials := 80
	if mode == Full {
		trials = 400
	}
	const (
		n   = 1 << 16
		k   = 8000
		eps = 1.0
	)
	base, err := zeroround.SolveThreshold(n, k, eps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E4",
		Title: "sample starvation of the threshold tester (n=2^16, k=8000, ε=1)",
		Columns: []string{
			"s/node", "s/√(n/k)", "T", "err|U", "err|far", "total err",
		},
	}
	ref := math.Sqrt(float64(n) / float64(k))
	fracs := []float64{1, 0.5, 0.35, 0.25, 0.15}
	rows, err := ctx.RunRows(rng.New(seed), len(fracs), func(row int, r *rng.RNG) ([]string, error) {
		s := int(math.Round(float64(base.SamplesPerNode) * fracs[row]))
		if s < 2 {
			s = 2
		}
		// Rebuild a threshold network with the starved sample count: δ and
		// the decision threshold are re-derived for the smaller s, keeping
		// the decision rule as favorable as possible (midpoint threshold).
		delta := float64(s) * float64(s-1) / (2 * float64(n))
		node, err := tester.NewSingleCollision(n, delta, eps)
		if err != nil {
			return nil, err
		}
		pU := 1 - tester.UniformNoCollisionProb(n, node.SampleSize())
		pF := tester.FarRejectPoisson(n, node.SampleSize(), eps)
		thr := int(math.Ceil(float64(k) * (pU + pF) / 2))
		if thr < 1 {
			thr = 1
		}
		nodes := make([]tester.Tester, k)
		for i := range nodes {
			nodes[i] = node
		}
		nw, err := zeroround.NewNetwork(nodes, zeroround.ThresholdRule{T: thr})
		if err != nil {
			return nil, err
		}
		nw.Obs = ctx.Registry()
		nw.Workers = ctx.Workers
		errU := nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
		errFar := nw.EstimateErrorAt(dist.NewTwoBump(n, eps, r.Uint64()), false, trials, r.Uint64())
		return []string{
			fmtFloat(float64(node.SampleSize())),
			fmtFloat(float64(node.SampleSize()) / ref),
			fmtFloat(float64(thr)),
			fmtProb(errU), fmtProb(errFar), fmtProb((errU + errFar) / 2),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRows(rows)
	t.AddNote("paper lower bound: any anonymous 0-round tester needs Ω(√(n/k)/log n) samples per node")
	t.AddNote("√(n/k) = %s for this regime; error should degrade toward 1/2 as s drops below it", fmtFloat(ref))
	// Lemma 2.1 numeric verification.
	violations := 0
	checks := 0
	for _, delta := range []float64{1e-4, 1e-3, 0.01, 0.1, 0.24} {
		for _, tau := range []float64{1.01, 1.5, 2, 3} {
			if tau >= 1/delta {
				continue
			}
			checks++
			kl, err := stats.KLBernoulli(1-delta, 1-tau*delta)
			if err != nil {
				return nil, err
			}
			if kl < stats.KLGapLowerBound(delta, tau)-1e-12 {
				violations++
			}
		}
	}
	t.AddNote("Lemma 2.1 KL inequality: %d/%d grid points satisfied", checks-violations, checks)
	t.AddNote("%d trials per error cell", trials)
	return t, nil
}
