package zeroround

import (
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
)

func buildThresholdNetwork(t *testing.T, n, k int) (*Network, ThresholdConfig) {
	t.Helper()
	cfg, err := SolveThreshold(n, k, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := BuildThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw, cfg
}

func TestRunAtDeterministic(t *testing.T) {
	nw, _ := buildThresholdNetwork(t, 4096, 120)
	d := dist.NewTwoBump(4096, 1.0, 9)
	for trial := uint64(0); trial < 8; trial++ {
		a1, r1 := nw.RunAt(d, 42, trial, nil, nil)
		a2, r2 := nw.RunAt(d, 42, trial, rng.New(99), nw.NewScratch())
		if a1 != a2 || r1 != r2 {
			t.Fatalf("trial %d: (%v, %d) vs (%v, %d) across calls", trial, a1, r1, a2, r2)
		}
	}
}

func TestRunAtOrderInvariant(t *testing.T) {
	nw, _ := buildThresholdNetwork(t, 4096, 120)
	d := dist.NewTwoBump(4096, 1.0, 9)
	g := rng.New(0)
	sc := nw.NewScratch()
	perm := rng.New(5).Perm(nw.K())
	for trial := uint64(0); trial < 6; trial++ {
		_, want := nw.RunAt(d, 7, trial, g, sc)
		rejects := 0
		for _, i := range perm {
			if nw.VoteAt(d, 7, trial, i, g, sc) {
				rejects++
			}
		}
		if rejects != want {
			t.Fatalf("trial %d: %d rejects in permuted order, %d in index order", trial, rejects, want)
		}
		if accept, _ := nw.RunAt(d, 7, trial, g, sc); accept != nw.Rule().Accept(rejects, nw.K()) {
			t.Fatalf("trial %d: verdict inconsistent with rule over votes", trial)
		}
	}
}

func TestVoteStreamIndependentOfCallOrder(t *testing.T) {
	// The same (base, trial, node) names the same stream no matter what the
	// generator did before.
	g1, g2 := rng.New(1), rng.New(2)
	g2.Uint64()
	g2.Uint64()
	VoteStream(g1, 11, 3, 17, 100)
	VoteStream(g2, 11, 3, 17, 100)
	for i := 0; i < 4; i++ {
		if a, b := g1.Uint64(), g2.Uint64(); a != b {
			t.Fatalf("draw %d differs: %d vs %d", i, a, b)
		}
	}
	// Distinct trials and nodes name distinct streams.
	VoteStream(g1, 11, 3, 17, 100)
	VoteStream(g2, 11, 4, 17, 100)
	if g1.Uint64() == g2.Uint64() {
		t.Fatal("adjacent trials share a stream")
	}
	VoteStream(g1, 11, 3, 17, 100)
	VoteStream(g2, 11, 3, 18, 100)
	if g1.Uint64() == g2.Uint64() {
		t.Fatal("adjacent nodes share a stream")
	}
}

func TestEstimateErrorAtMatchesManualLoop(t *testing.T) {
	nw, _ := buildThresholdNetwork(t, 4096, 120)
	d := dist.NewUniform(4096)
	const trials = 40
	got := nw.EstimateErrorAt(d, true, trials, 13)
	wrong := 0
	for tr := 0; tr < trials; tr++ {
		if accept, _ := nw.RunAt(d, 13, uint64(tr), nil, nil); !accept {
			wrong++
		}
	}
	if want := float64(wrong) / trials; got != want {
		t.Fatalf("EstimateErrorAt = %v, manual loop = %v", got, want)
	}
}

func TestRunAtErrorWithinBound(t *testing.T) {
	// The indexed execution is a fair Monte-Carlo engine: at feasible
	// threshold parameters both error sides stay within the paper's 1/3.
	nw, cfg := buildThresholdNetwork(t, 1<<16, 2000)
	if !cfg.Feasible {
		t.Skipf("threshold config infeasible at n=%d k=%d", cfg.N, cfg.K)
	}
	const trials = 60
	if errU := nw.EstimateErrorAt(dist.NewUniform(cfg.N), true, trials, 3); errU > 1.0/3 {
		t.Errorf("err|U = %v > 1/3", errU)
	}
	far := dist.NewTwoBump(cfg.N, cfg.Eps, 3)
	if errFar := nw.EstimateErrorAt(far, false, trials, 4); errFar > 1.0/3 {
		t.Errorf("err|far = %v > 1/3", errFar)
	}
}

// benchRejects keeps BenchmarkVoteAt's votes live.
var benchRejects int

// BenchmarkVoteAt times the indexed vote path that perfbench's
// zeroround.vote_ns row reports: VoteAt (reseed, sample block, collision
// statistic) on the 64-node threshold network over a 64-element domain at
// ε = 1, node-major over 128 trials, for the uniform and the two-bump
// input. One op is one vote.
func BenchmarkVoteAt(b *testing.B) {
	const n, k, trials = 64, 64, 128
	cfg, err := SolveThreshold(n, k, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := BuildThreshold(cfg)
	if err != nil {
		b.Fatal(err)
	}
	inputs := []struct {
		name string
		d    dist.Distribution
	}{
		{"uniform", dist.NewUniform(n)},
		{"twobump", dist.NewTwoBump(n, 1.0, 7)},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			g := rng.New(0)
			sc := nw.NewScratch()
			rejects := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := i % (k * trials)
				if nw.VoteAt(in.d, 42, uint64(v%trials), v/trials, g, sc) {
					rejects++
				}
			}
			benchRejects = rejects
		})
	}
}
