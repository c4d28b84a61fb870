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
		ID:          "E15",
		Description: "ablation: placing T at the lower edge / midpoint / upper edge of the eq. (5) window",
		Run:         runE15,
	})
}

// runE15 ablates the threshold placement inside the eq. (5) window
// (DESIGN.md §3.1 calls out the midpoint choice): the lower edge trades
// uniform-side error for far-side error, the upper edge the reverse; the
// midpoint balances them. All three must stay within the 1/3 bound in the
// feasible regime.
func runE15(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	trials := 120
	if mode == Full {
		trials = 600
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
	node, err := tester.NewSingleCollision(n, base.Delta, eps)
	if err != nil {
		return nil, err
	}
	// Recompute the window edges from the tight per-node probabilities.
	ln3 := math.Log(3)
	pU := 1 - tester.UniformNoCollisionProb(n, node.SampleSize())
	pF := tester.FarRejectLowerBound(n, node.SampleSize(), eps)
	etaU, etaF := float64(k)*pU, float64(k)*pF
	lower := etaU + math.Sqrt(3*ln3*etaU)
	upper := etaF - math.Sqrt(2*ln3*etaF)

	t := &Table{
		ID:    "E15",
		Title: "threshold placement within the eq. (5) window (n=2^16, k=8000, ε=1)",
		Columns: []string{
			"placement", "T", "err|U", "err|far",
		},
	}
	nodes := make([]tester.Tester, k)
	for i := range nodes {
		nodes[i] = node
	}
	placements := []struct {
		name string
		t    int
	}{
		{name: "lower edge", t: int(math.Ceil(lower))},
		{name: "midpoint", t: int(math.Ceil((lower + upper) / 2))},
		{name: "upper edge", t: int(math.Floor(upper))},
		{name: "below window (T=ηU)", t: int(etaU)},
		{name: "above window (T=ηFar)", t: int(etaF) + 1},
	}
	rows, err := ctx.RunRows(rng.New(seed), len(placements), func(row int, r *rng.RNG) ([]string, error) {
		pl := placements[row]
		if pl.t < 1 {
			pl.t = 1
		}
		nw, err := zeroround.NewNetwork(nodes, zeroround.ThresholdRule{T: pl.t})
		if err != nil {
			return nil, err
		}
		nw.Obs = ctx.Registry()
		nw.Workers = ctx.Workers
		errU := nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
		errF := nw.EstimateErrorAt(dist.NewTwoBump(n, eps, r.Uint64()), false, trials, r.Uint64())
		return []string{pl.name, fmtFloat(float64(pl.t)), fmtProb(errU), fmtProb(errF)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRows(rows)
	t.AddNote("window: [%s, %s] from ηU=%s, ηFar=%s", fmtFloat(lower), fmtFloat(upper), fmtFloat(etaU), fmtFloat(etaF))
	t.AddNote("inside the window all placements meet the 1/3 bound; outside it one side collapses")
	t.AddNote("%d trials per cell", trials)
	return t, nil
}
