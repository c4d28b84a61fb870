package experiment

import (
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/smp"
)

func init() {
	register(Experiment{
		ID:          "E14",
		Description: "SMP protocol comparison: Lemma 7.3 chunks vs single-cell probes vs trivial",
		Run:         runE14,
	})
}

// runE14 compares three simultaneous Equality protocols at n = 1024 bits:
// the deterministic send-everything protocol, the classical single-cell
// probing protocol at several repetition counts, and Lemma 7.3's chunk
// protocol at several (δ, τ). The chunk protocol's structured geometry
// buys the same detection with asymmetric error at O(√(τδn)) cost.
func runE14(ctx *RunContext) (*Table, error) {
	mode, seed := ctx.Mode, ctx.Seed
	trials := 20000
	if mode == Full {
		trials = 100000
	}
	const nBits = 1024
	t := &Table{
		ID:    "E14",
		Title: "SMP Equality protocols at n=1024 bits (single-bit-different inputs)",
		Columns: []string{
			"protocol", "msg bits", "acc|eq", "rej|neq",
		},
	}
	r := rng.New(seed)
	x := make([]byte, nBits/8)
	for i := range x {
		x[i] = byte(r.Intn(256))
	}
	y := append([]byte(nil), x...)
	y[0] ^= 1

	// Trivial deterministic protocol.
	tr, err := smp.NewTrivialEquality(nBits)
	if err != nil {
		return nil, err
	}
	accEq, err := tr.Run(x, x, r)
	if err != nil {
		return nil, err
	}
	accNeq, err := tr.Run(x, y, r)
	if err != nil {
		return nil, err
	}
	t.AddRow("trivial (send all)", fmtFloat(float64(tr.MessageBits())),
		fmtProb(boolProb(accEq)), fmtProb(1-boolProb(accNeq)))

	// Single-cell probing at several repetition counts.
	for _, reps := range []int{8, 64, 256} {
		sc, err := smp.NewSingleCellEquality(nBits, reps)
		if err != nil {
			return nil, err
		}
		rej, err := sc.EstimateRejectProb(x, y, trials, ctx.WorkerCount(), r)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			"single-cell ×"+fmtFloat(float64(reps)),
			fmtFloat(float64(sc.MessageBits())),
			"1.000", fmtProb(rej),
		)
	}

	// Lemma 7.3 chunk protocol.
	for _, c := range []struct{ delta, tau float64 }{
		{delta: 0.01, tau: 2},
		{delta: 0.02, tau: 4},
	} {
		e, err := smp.NewEquality(nBits, c.delta, c.tau)
		if err != nil {
			return nil, err
		}
		rej, err := e.EstimateRejectProb(x, y, trials, ctx.WorkerCount(), r)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			"chunk δ="+fmtFloat(c.delta)+" τ="+fmtFloat(c.tau),
			fmtFloat(float64(e.MessageBits())),
			"1.000", fmtProb(rej),
		)
	}
	t.AddNote("single-cell probes pay reps·(log m + 1) bits for reps/m detection per pair of probes")
	t.AddNote("the chunk protocol detects with the same order probability at Θ(√(τδn)) bits (Lemma 7.3)")
	t.AddNote("%d trials per randomized cell", trials)
	return t, nil
}

func boolProb(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
