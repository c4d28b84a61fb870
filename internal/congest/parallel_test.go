package congest

import (
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
	"github.com/unifdist/unifdist/internal/simnet/simnettest"
)

// TestEstimateErrorParallelWorkerInvariant pins the estimator's central
// claim: the same caller stream yields the same estimate at any worker
// count, and the caller's RNG advances identically.
func TestEstimateErrorParallelWorkerInvariant(t *testing.T) {
	g := graph.NewGrid(4, 5)
	n := 256
	p, err := SolveParamsCalibrated(n, g.N(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	d := dist.NewUniform(n)

	type outcome struct {
		est  float64
		next uint64
	}
	var want outcome
	for i, workers := range []int{1, 2, 3, 8} {
		r := rng.New(7)
		est, err := EstimateErrorParallel(g, d, p, true, 25, workers, r)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := outcome{est: est, next: r.Uint64()}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: (est=%v, next=%d), want (est=%v, next=%d)",
				workers, got.est, got.next, want.est, want.next)
		}
	}
}

func TestEstimateErrorParallelRejectsFar(t *testing.T) {
	g := graph.NewRandomConnected(2000, 6.0/2000, 3)
	n := 1024
	p, err := SolveParamsCalibrated(n, g.N(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	far := dist.NewHalfSupport(n)
	est, err := EstimateErrorParallel(g, far, p, false, 12, 0, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if est > 1.0/3 {
		t.Fatalf("far-input error rate %v > 1/3", est)
	}
}

func TestEstimateErrorParallelPropagatesError(t *testing.T) {
	g := graph.NewRing(8)
	if _, err := EstimateErrorParallel(g, dist.NewUniform(16), Params{Tau: 1}, true, 4, 2, rng.New(1)); err == nil {
		t.Fatal("expected error for τ < 2")
	}
}

// benchUniformityEngine measures one full uniformity run per iteration on
// the given simulator engine — the CONGEST-path before/after pair for the
// flat engine (BenchmarkUniformityFlat vs BenchmarkUniformityChannelRef).
func benchUniformityEngine(b *testing.B, engine func(*graph.Graph, []simnet.Node, simnet.Config) (simnet.Stats, error)) {
	b.Helper()
	n, k := 1<<12, 400
	p, err := SolveParams(n, k, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.NewGrid(20, 20)
	r := rng.New(1)
	d := dist.NewUniform(n)
	tokens := make([]uint64, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := range tokens {
			tokens[v] = uint64(d.Sample(r))
		}
		nodes, impls, err := buildNodes(g, tokens, ModeUniformity, p.Tau, p.T, nil)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := engine(g, nodes, simnet.Config{MaxBytesPerMessage: congestBandwidth, Seed: r.Uint64()})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := collectUniformity(stats, impls); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniformityFlat(b *testing.B)       { benchUniformityEngine(b, simnet.Run) }
func BenchmarkUniformityChannelRef(b *testing.B) { benchUniformityEngine(b, simnettest.RunChannel) }

// TestUniformityEnginesAgree runs the full uniformity protocol under both
// simulator engines on a spread of topologies and requires identical
// verdicts, aggregates and stats — the congest-level differential test for
// the flat engine.
func TestUniformityEnginesAgree(t *testing.T) {
	n := 256
	topologies := []*graph.Graph{
		graph.NewLine(20),
		graph.NewRing(24),
		graph.NewStar(16),
		graph.NewGrid(4, 6),
		graph.NewBalancedTree(21, 2),
		graph.NewRandomConnected(30, 0.15, 9),
	}
	for _, g := range topologies {
		p, err := SolveParamsCalibrated(n, g.N(), 1.0)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		r := rng.New(11)
		tokens := make([]uint64, g.N())
		d := dist.NewUniform(n)
		for v := range tokens {
			tokens[v] = uint64(d.Sample(r))
		}
		seed := r.Uint64()

		run := func(engine func(*graph.Graph, []simnet.Node, simnet.Config) (simnet.Stats, error)) (UniformityResult, error) {
			nodes, impls, err := buildNodes(g, tokens, ModeUniformity, p.Tau, p.T, nil)
			if err != nil {
				return UniformityResult{}, err
			}
			stats, err := engine(g, nodes, simnet.Config{MaxBytesPerMessage: congestBandwidth, Seed: seed})
			if err != nil {
				return UniformityResult{}, err
			}
			return collectUniformity(stats, impls)
		}
		flat, ferr := run(simnet.Run)
		legacy, lerr := run(simnettest.RunChannel)
		if (ferr == nil) != (lerr == nil) || (ferr != nil && ferr.Error() != lerr.Error()) {
			t.Fatalf("%s: errors differ: flat=%v legacy=%v", g.Name(), ferr, lerr)
		}
		if ferr != nil {
			continue
		}
		if flat.Accept != legacy.Accept || flat.Rejects != legacy.Rejects ||
			flat.Virtuals != legacy.Virtuals || flat.Root != legacy.Root ||
			flat.Discarded != legacy.Discarded || flat.Stats != legacy.Stats {
			t.Fatalf("%s: results differ:\nflat:   %+v\nlegacy: %+v", g.Name(), flat, legacy)
		}
	}
}
