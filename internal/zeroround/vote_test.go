package zeroround

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
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

// estimateNetworks builds one small network per decision rule, both over
// the same node tester, with thresholds that make uniform and far inputs
// stop early at different nodes.
func estimateNetworks(t *testing.T) []*Network {
	t.Helper()
	const n = 1 << 10
	node, err := tester.NewSingleCollision(n, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]tester.Tester, 40)
	for i := range nodes {
		nodes[i] = node
	}
	var nws []*Network
	for _, rule := range []Rule{ANDRule{}, ThresholdRule{T: 5}} {
		nw, err := NewNetwork(nodes, rule)
		if err != nil {
			t.Fatal(err)
		}
		nws = append(nws, nw)
	}
	return nws
}

func estimateInputs() []dist.Distribution {
	return []dist.Distribution{dist.NewUniform(1 << 10), dist.NewTwoBump(1<<10, 1, 3)}
}

// TestVerdictAtMatchesRunAt replays every trial through the early-stopping
// verdict path and the full-scan RunAt and demands identical verdicts under
// both rules, on uniform and far inputs.
func TestVerdictAtMatchesRunAt(t *testing.T) {
	for _, nw := range estimateNetworks(t) {
		g, sc := rng.New(0), nw.NewScratch()
		for _, d := range estimateInputs() {
			for trial := uint64(0); trial < 60; trial++ {
				fast := nw.verdictAt(d, 9, trial, g, sc)
				slow, _ := nw.RunAt(d, 9, trial, g, sc)
				if fast != slow {
					t.Fatalf("%s %s trial %d: verdictAt = %v, RunAt = %v", nw.Rule().Name(), d.Name(), trial, fast, slow)
				}
			}
		}
	}
}

// TestRunAtRejectsPinnedAND pins RunAt's reject counts on an AND network
// whose nodes vote on m = 2 blocks (SolveAND(2¹⁶, 1000, 1, 1/3): M = 2,
// s = 104) for trials 0–63 at base 22, on the uniform and a two-bump
// input. The literals were recorded when every vote drew all its samples,
// so they hold the early block exit to the full draw's verdicts.
func TestRunAtRejectsPinnedAND(t *testing.T) {
	cfg, err := SolveAND(1<<16, 1000, 1, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.M != 2 || cfg.SamplesPerNode != 104 {
		t.Fatalf("SolveAND: M = %d, s = %d; the pin needs M = 2, s = 104", cfg.M, cfg.SamplesPerNode)
	}
	nw, err := BuildAND(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		d       dist.Distribution
		rejects [64]int
	}{
		{dist.NewUniform(1 << 16), [64]int{
			1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0,
		}},
		{dist.NewTwoBump(1<<16, 1, 7), [64]int{
			1, 0, 3, 1, 1, 3, 0, 1, 2, 0, 0, 2, 2, 1, 1, 3, 0, 2, 0, 0, 2, 1, 0, 0, 1, 1, 3, 0, 0, 2, 2, 0,
			1, 3, 0, 0, 4, 2, 0, 0, 1, 2, 4, 1, 2, 1, 1, 0, 0, 1, 0, 0, 2, 1, 3, 3, 2, 3, 2, 1, 0, 0, 1, 1,
		}},
	} {
		g, sc := rng.New(0), nw.NewScratch()
		for trial, want := range pin.rejects {
			accept, got := nw.RunAt(pin.d, 22, uint64(trial), g, sc)
			if got != want || accept != (want == 0) {
				t.Fatalf("%s trial %d: RunAt = (%v, %d rejects), pinned %d rejects", pin.d.Name(), trial, accept, got, want)
			}
		}
	}
}

// TestEstimateErrorAtMatchesManualLoop: at every worker count, with
// telemetry on and off, under both rules and on both inputs, the
// early-stopping parallel estimate equals a full RunAt loop over the same
// base bit for bit.
func TestEstimateErrorAtMatchesManualLoop(t *testing.T) {
	const trials, base = 53, 13
	for _, nw := range estimateNetworks(t) {
		for _, d := range estimateInputs() {
			for _, wantAccept := range []bool{true, false} {
				wrong := 0
				for tr := 0; tr < trials; tr++ {
					if accept, _ := nw.RunAt(d, base, uint64(tr), nil, nil); accept != wantAccept {
						wrong++
					}
				}
				want := float64(wrong) / trials
				for _, workers := range []int{1, 2, 8} {
					for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
						nw.Workers, nw.Obs = workers, reg
						if got := nw.EstimateErrorAt(d, wantAccept, trials, base); got != want {
							t.Fatalf("%s %s want=%v workers=%d obs=%v: EstimateErrorAt = %v, RunAt loop = %v",
								nw.Rule().Name(), d.Name(), wantAccept, workers, reg != nil, got, want)
						}
					}
				}
			}
		}
	}
}

// TestEstimateErrorAtReusesScratch: trial scratch outlives the call and
// the network, so after a warm-up an E2-size cell (n = 2²⁰, where one
// stamp array is 2 MiB) allocates well under one stamp array, on the
// network that warmed the pool and on a new one. Each network is measured
// over five calls and judged by its least allocation, so a garbage
// collection that empties the pool mid-test cannot fail it.
func TestEstimateErrorAtReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const n, stamp = 1 << 20, 2 << 20
	build := func(k int) *Network {
		cfg, err := SolveAND(n, k, 1, 1.0/3)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := BuildAND(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nw.Workers = 2
		return nw
	}
	u := dist.NewUniform(n)
	warm := build(1000)
	warm.EstimateErrorAt(u, true, 25, 1)
	for _, nw := range []*Network{warm, build(4000)} {
		least := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for i := uint64(0); i < 5; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			nw.EstimateErrorAt(u, true, 25, 2+i)
			runtime.ReadMemStats(&ms)
			least = min(least, ms.TotalAlloc-before)
		}
		if least > stamp/16 {
			t.Errorf("k=%d: an EstimateErrorAt call allocated %d B at least, want under %d B (1/16 of a stamp array)", nw.K(), least, stamp/16)
		}
	}
}

// TestEstimateErrorAtConcurrentCalls: calls running at once on networks of
// different sample sizes share the scratch pool, and each still returns
// its sequential estimate.
func TestEstimateErrorAtConcurrentCalls(t *testing.T) {
	cfg, err := SolveAND(1<<16, 1000, 1, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	and, err := BuildAND(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nws := append(estimateNetworks(t), and)
	d := dist.NewTwoBump(1<<10, 1, 3)
	and16 := dist.NewTwoBump(1<<16, 1, 3)
	input := func(nw *Network) dist.Distribution {
		if nw == and {
			return and16
		}
		return d
	}
	want := make([]float64, len(nws))
	for i, nw := range nws {
		nw.Workers = 2
		want[i] = nw.EstimateErrorAt(input(nw), false, 40, 8)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				i := (g + round) % len(nws)
				if got := nws[i].EstimateErrorAt(input(nws[i]), false, 40, 8); got != want[i] {
					t.Errorf("network %d: concurrent estimate %v, sequential %v", i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEstimateErrorParallelDeterministic: EstimateErrorAt's parallel pool
// gives the same estimate on every call at the same base.
func TestEstimateErrorParallelDeterministic(t *testing.T) {
	nw, _ := buildThresholdNetwork(t, 1<<14, 2000)
	u := dist.NewUniform(1 << 14)
	if a, b := nw.EstimateErrorAt(u, true, 40, 5), nw.EstimateErrorAt(u, true, 40, 5); a != b {
		t.Fatalf("parallel estimation not deterministic: %v vs %v", a, b)
	}
}

// TestEstimateErrorParallelWorkerCountInvariant checks EstimateErrorAt's
// core guarantee on a large network: the estimate is bit-for-bit
// identical at every worker count, and at any GOMAXPROCS.
func TestEstimateErrorParallelWorkerCountInvariant(t *testing.T) {
	nw, _ := buildThresholdNetwork(t, 1<<14, 2000)
	far := dist.NewTwoBump(1<<14, 1, 3)
	want := -1.0
	for _, workers := range []int{1, 2, 3, 8} {
		nw.Workers = workers
		got := nw.EstimateErrorAt(far, false, 37, 11)
		if want < 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: estimate %v, want %v", workers, got, want)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		nw.Workers = 0 // default to GOMAXPROCS
		if got := nw.EstimateErrorAt(far, false, 37, 11); got != want {
			t.Fatalf("GOMAXPROCS=%d: estimate %v, want %v", procs, got, want)
		}
	}
}

// TestEstimateErrorParallelZeroTrials: EstimateErrorAt over no trials
// estimates 0, not 0/0.
func TestEstimateErrorParallelZeroTrials(t *testing.T) {
	nw, _ := buildThresholdNetwork(t, 1<<12, 500)
	for _, trials := range []int{0, -1} {
		if got := nw.EstimateErrorAt(dist.NewUniform(1<<12), true, trials, 1); got != 0 {
			t.Fatalf("%d trials returned %v", trials, got)
		}
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

// BenchmarkVoteAt times the indexed vote path, VoteAt (reseed, sample
// blocks, collision checks), node-major over 128 trials, for the uniform
// and the two-bump input on two networks. The unprefixed cases run the
// 64-node threshold network over a 64-element domain at ε = 1 that
// perfbench's zeroround.vote_ns row reports: one block per node. The and/
// cases run the AND network of SolveAND(2¹⁶, 1000, 1, 1/3), whose nodes
// vote on m = 2 blocks of 52 samples, so a uniform vote mostly stops after
// its first block. One op is one vote.
func BenchmarkVoteAt(b *testing.B) {
	const trials = 128
	thrCfg, err := SolveThreshold(64, 64, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	thr, err := BuildThreshold(thrCfg)
	if err != nil {
		b.Fatal(err)
	}
	andCfg, err := SolveAND(1<<16, 1000, 1.0, 1.0/3)
	if err != nil {
		b.Fatal(err)
	}
	and, err := BuildAND(andCfg)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		nw   *Network
		d    dist.Distribution
	}{
		{"uniform", thr, dist.NewUniform(64)},
		{"twobump", thr, dist.NewTwoBump(64, 1.0, 7)},
		{"and/uniform", and, dist.NewUniform(1 << 16)},
		{"and/twobump", and, dist.NewTwoBump(1<<16, 1.0, 7)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := c.nw.K()
			g := rng.New(0)
			sc := c.nw.NewScratch()
			rejects := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := i % (k * trials)
				if c.nw.VoteAt(c.d, 42, uint64(v%trials), v/trials, g, sc) {
					rejects++
				}
			}
			benchRejects = rejects
		})
	}
}

// BenchmarkEstimateErrorAt times the estimator behind the 0-round paper
// tables on a small threshold network (k = 200, n = 2¹²), 256 trials per
// op at the default worker count.
func BenchmarkEstimateErrorAt(b *testing.B) {
	cfg, err := SolveThreshold(1<<12, 200, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := BuildThreshold(cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := dist.NewUniform(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.EstimateErrorAt(d, true, 256, uint64(i))
	}
}
