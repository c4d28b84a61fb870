package experiment

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/congest"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
)

func init() {
	register(Experiment{
		ID:          "E6",
		Description: "Theorem 5.1: τ-token packaging in O(D+τ) CONGEST rounds",
		Run:         runE6,
	})
}

// runE6 runs token packaging across topologies and package sizes and
// compares measured rounds against D+τ, checking Definition 2's invariants
// on every run.
func runE6(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	k := 400
	if mode == Full {
		k = 2000
	}
	t := &Table{
		ID:    "E6",
		Title: fmt.Sprintf("τ-token packaging (k=%d)", k),
		Columns: []string{
			"topology", "D", "τ", "rounds", "D+τ", "rounds/(D+τ)",
			"packages", "leftover", "invariants",
		},
	}
	r := rng.New(seed)
	topologies := []*graph.Graph{
		graph.NewLine(k),
		graph.NewRing(k),
		graph.NewStar(k),
		graph.NewGrid(k/20, 20),
		graph.NewBalancedTree(k, 2),
		graph.NewRandomConnected(k, 8.0/float64(k), seed),
	}
	for _, g := range topologies {
		d := g.Diameter()
		for _, tau := range []int{4, 16, 64} {
			tokens := make([]uint64, g.N())
			for i := range tokens {
				tokens[i] = r.Uint64() % 1024
			}
			res, err := congest.RunTokenPackaging(g, tokens, tau, congest.Options{Tracer: ctx.SimTracer("E6", congest.Bandwidth())})
			if err != nil {
				return nil, fmt.Errorf("%s τ=%d: %w", g.Name(), tau, err)
			}
			ok := res.Discarded <= tau-1
			total := res.Discarded
			for _, pkg := range res.Packages {
				if len(pkg) != tau {
					ok = false
				}
				total += len(pkg)
			}
			if total != g.N() {
				ok = false
			}
			t.AddRow(
				g.Name(), fmtFloat(float64(d)), fmtFloat(float64(tau)),
				fmtFloat(float64(res.Stats.Rounds)), fmtFloat(float64(d+tau)),
				fmtFloat(float64(res.Stats.Rounds)/float64(d+tau)),
				fmtFloat(float64(len(res.Packages))), fmtFloat(float64(res.Discarded)),
				fmtBool(ok),
			)
		}
	}
	t.AddNote("paper: O(D+τ) rounds; the rounds/(D+τ) column is the realized constant")
	t.AddNote("invariants: every package exactly τ tokens, ≤ τ−1 leftover, token conservation")
	return t, nil
}
