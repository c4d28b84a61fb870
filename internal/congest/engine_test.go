package congest

import (
	"testing"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
	"github.com/unifdist/unifdist/internal/simnet/simnettest"
)

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
