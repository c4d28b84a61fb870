package experiment

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/local"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/zeroround"
)

func init() {
	register(Experiment{
		ID:          "E8",
		Description: "Section 6: LOCAL tester — MIS on G^r, gathering, per-MIS-node sample counts",
		Run:         runE8,
	})
}

// runE8 runs the LOCAL protocol's MIS and gather once per topology and
// radius, reporting MIS sizes, per-virtual-node sample counts (≥ r/2
// guaranteed) and G-round costs, and takes the error cells on uniform and
// near-point-mass inputs from EstimateErrorAt on that schedule's virtual
// network.
func runE8(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	k := 400
	trials := 1000
	if mode == Full {
		k = 1500
		trials = 10000
	}
	t := &Table{
		ID:    "E8",
		Title: fmt.Sprintf("LOCAL tester mechanics (k=%d)", k),
		Columns: []string{
			"topology", "r", "MIS", "⌊2k/r⌋", "min samp", "r/2", "G-rounds",
			"err|U big-n", "err|point",
		},
	}
	r := rng.New(seed)
	cases := []struct {
		g      *graph.Graph
		radius int
	}{
		{g: graph.NewLine(k), radius: 8},
		{g: graph.NewGrid(k/20, 20), radius: 4},
		{g: graph.NewRandomConnected(k, 4.0/float64(k), seed), radius: 3},
		{g: graph.NewRing(k), radius: 6},
	}
	const (
		bigN   = 1 << 30
		pointN = 1 << 10
	)
	for _, c := range cases {
		p := local.Params{N: bigN, K: c.g.N(), Eps: 1, P: 1.0 / 3, R: c.radius}
		p.AND.M = 1
		sched, err := local.RunSchedule(c.g, p, r.Uint64())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.g.Name(), err)
		}
		big, err := sched.Network(bigN)
		if err != nil {
			return nil, err
		}
		point, err := sched.Network(pointN)
		if err != nil {
			return nil, err
		}
		minSamples := c.g.N()
		for _, b := range sched.Blocks {
			minSamples = min(minSamples, len(b))
		}
		for _, nw := range []*zeroround.Network{big, point} {
			nw.Obs = ctx.Registry()
			nw.Workers = ctx.Workers
		}
		errU := big.EstimateErrorAt(dist.NewUniform(bigN), true, trials, r.Uint64())
		errPoint := point.EstimateErrorAt(dist.NewPointMassMixture(pointN, 0, 0.999), false, trials, r.Uint64())
		t.AddRow(
			c.g.Name(), fmtFloat(float64(c.radius)),
			fmtFloat(float64(len(sched.Blocks))), fmtFloat(float64(2*c.g.N()/c.radius)),
			fmtFloat(float64(minSamples)), fmtFloat(float64(c.radius)/2),
			fmtFloat(float64(sched.GRounds)),
			fmtErr(errU, trials), fmtErr(errPoint, trials),
		)
	}
	// Solver scaling rows: r grows with n as the paper's expression tends
	// to Θ(√n/ε²) for small ε.
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		p, err := local.SolveLocal(n, 1<<20, 1, 1.0/3)
		if err != nil {
			return nil, err
		}
		t.AddNote("solver: n=%d k=2^20 ⇒ r=%d, ℓ=%d, s/virtual=%d, feasible=%v",
			n, p.R, p.VirtualNodes, p.AND.SamplesPerNode, p.Feasible)
	}
	t.AddNote("paper: MIS of G^r has ≤ ⌊2k/r⌋ nodes and each collects ≥ r/2 samples")
	t.AddNote("each row draws its MIS seed once; the paper's bound holds for any MIS, so the row's error cells are EstimateErrorAt on that MIS's virtual network, %d trials each, [95%% Wilson interval]", trials)
	t.AddNote("err|U big-n: uniform over n=2^30 rejected (a collision is all but impossible); err|point: 0.999 point mass over n=2^10 accepted")
	return t, nil
}
