package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/unifdist/unifdist/internal/congest"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
)

func init() {
	register(Experiment{
		ID:          "E7",
		Description: "Theorem 1.4: CONGEST uniformity testing in O(D + n/(kε⁴)) rounds",
		Run:         runE7,
	})
}

// runE7 runs the full CONGEST protocol once per topology — the traced run
// that fixes rounds, message sizes and the package partition — and takes
// each error cell from EstimateErrorAt on that schedule's virtual network
// (Theorem 1.4's reduction to Theorem 1.2).
func runE7(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	trials := 1000
	k := 8000
	if mode == Full {
		trials = 10000
	}
	const (
		n   = 1 << 12
		eps = 1.0
	)
	p, err := congest.SolveParamsCalibrated(n, k, eps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E7",
		Title: fmt.Sprintf("CONGEST uniformity (n=2^12, k=%d, ε=1, τ=%d, T=%d, calibrated=%v)", k, p.Tau, p.T, p.Calibrated),
		Columns: []string{
			"topology", "D", "rounds", "D+τ", "rounds/(D+τ)", "maxMsgB",
			"err|U", "err|far",
		},
	}
	r := rng.New(seed)
	topologies := []*graph.Graph{
		graph.NewRandomConnected(k, 6.0/float64(k), seed),
		graph.NewGrid(k/100, 100),
	}
	var packages []string // count per topology
	for _, g := range topologies {
		d := g.Diameter()
		sched, err := congest.RunSchedule(g, p, congest.Options{Tracer: ctx.SimTracer("E7", congest.Bandwidth()), Workers: ctx.Workers})
		if err != nil {
			return nil, err
		}
		errU, errFar, err := scheduleErrors(ctx, sched, n, eps, trials, r)
		if err != nil {
			return nil, err
		}
		packages = append(packages, strconv.Itoa(len(sched.Packages)))
		t.AddRow(
			g.Name(), fmtFloat(float64(d)),
			fmtFloat(float64(sched.Stats.Rounds)), fmtFloat(float64(d+p.Tau)),
			fmtFloat(float64(sched.Stats.Rounds)/float64(d+p.Tau)),
			fmtFloat(float64(sched.Stats.MaxMessageBytes)),
			fmtErr(errU, trials), fmtErr(errFar, trials),
		)
	}
	t.AddNote("paper: O(D + n/(kε⁴)) rounds; asymptotic τ = n/(kε⁴) = %s, solver chose τ=%d", fmtFloat(congest.PredictedTau(n, k, eps)), p.Tau)
	t.AddNote("calibrated parameter mode (two-bump Poisson far model); rigorous mode needs k ≳ 4·10⁴ — see DESIGN.md §3.1")
	t.AddNote("every message fits the 16-byte CONGEST budget")
	t.AddNote("one simulated run per topology fixes rounds and the package partition; error cells are EstimateErrorAt on its virtual network, %d trials each, [95%% Wilson interval]", trials)
	t.AddNote("the error depends only on (|packages|, τ, T): the topologies yield %s packages of %d", strings.Join(packages, " and "), p.Tau)
	if mode == Full {
		// One rigorous-regime demonstration, estimated the same way.
		rig, err := congest.SolveParams(n, 40000, eps)
		if err == nil && rig.Feasible {
			g := graph.NewRandomConnected(40000, 4.0/40000.0, seed^1)
			sched, err := congest.RunSchedule(g, rig, congest.Options{Workers: ctx.Workers})
			if err != nil {
				return nil, err
			}
			errU, errFar, err := scheduleErrors(ctx, sched, n, eps, trials, r)
			if err != nil {
				return nil, err
			}
			t.AddNote("rigorous regime (k=40000, τ=%d, T=%d, %d packages): err|U=%s err|far=%s over %d trials",
				rig.Tau, rig.T, len(sched.Packages), fmtErr(errU, trials), fmtErr(errFar, trials), trials)
		}
	}
	return t, nil
}

// scheduleErrors estimates a CONGEST schedule's error on uniform and on
// two-bump ε-far inputs over [0, trials) indexed trials of its virtual
// network, drawing the far instance's seed and both bases from r.
func scheduleErrors(ctx *RunContext, sched congest.Schedule, n int, eps float64, trials int, r *rng.RNG) (errU, errFar float64, err error) {
	nw, err := sched.Network(n)
	if err != nil {
		return 0, 0, err
	}
	nw.Obs = ctx.Registry()
	nw.Workers = ctx.Workers
	errU = nw.EstimateErrorAt(dist.NewUniform(n), true, trials, r.Uint64())
	errFar = nw.EstimateErrorAt(dist.NewTwoBump(n, eps, r.Uint64()), false, trials, r.Uint64())
	return errU, errFar, nil
}
