package experiment

import (
	"math"

	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/smp"
)

func init() {
	register(Experiment{
		ID:          "E9",
		Description: "Lemma 7.3: SMP Equality with error (1−τδ, δ) at cost O(√(τδn))",
		Run:         runE9,
	})
}

// runE9 measures the SMP Equality protocol: acceptance on equal inputs
// (always 1), rejection rate on single-bit-different inputs vs the τδ
// guarantee, and message cost vs the paper's √(24τδn) chunk formula.
func runE9(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	trials := 20000
	if mode == Full {
		trials = 120000
	}
	t := &Table{
		ID:    "E9",
		Title: "SMP Equality with asymmetric error",
		Columns: []string{
			"n bits", "δ", "τ", "t chunk", "√(24τδn)", "msg bits",
			"acc|eq", "rej|neq", "τδ guar",
		},
	}
	r := rng.New(seed)
	cases := []struct {
		n     int
		delta float64
		tau   float64
	}{
		{n: 256, delta: 0.01, tau: 2},
		{n: 1024, delta: 0.01, tau: 2},
		{n: 4096, delta: 0.01, tau: 2},
		{n: 1024, delta: 0.01, tau: 4},
		{n: 1024, delta: 0.002, tau: 8},
	}
	for _, c := range cases {
		e, err := smp.NewEquality(c.n, c.delta, c.tau)
		if err != nil {
			return nil, err
		}
		x := make([]byte, (c.n+7)/8)
		for i := range x {
			x[i] = byte(r.Intn(256))
		}
		y := append([]byte(nil), x...)
		y[0] ^= 1 // single-bit difference: hardest unequal pair
		rejEq, err := e.EstimateRejectProb(x, x, trials/4, ctx.WorkerCount(), r)
		if err != nil {
			return nil, err
		}
		rejNeq, err := e.EstimateRejectProb(x, y, trials, ctx.WorkerCount(), r)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmtFloat(float64(c.n)), fmtFloat(c.delta), fmtFloat(c.tau),
			fmtFloat(float64(e.ChunkLen())),
			fmtFloat(math.Sqrt(24*c.tau*c.delta*float64(c.n))),
			fmtFloat(float64(e.MessageBits())),
			fmtProb(1-rejEq), fmtProb(rejNeq),
			fmtFloat(e.GuaranteedReject()),
		)
	}
	t.AddNote("paper: accept equal inputs w.p. ≥ 1−δ (this construction: always); reject unequal w.p. ≥ τδ")
	t.AddNote("chunk t tracks the paper's ⌈√(24τδn)⌉ because the concatenated code realizes m≈4n, d≈m/6")
	t.AddNote("%d trials per rejection cell", trials)
	return t, nil
}
