package congest

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/simnet"
	"github.com/unifdist/unifdist/internal/trialpool"
)

// EstimateErrorParallel is EstimateError with trials fanned out across the
// shared trial pool (internal/trialpool; workers 0 means GOMAXPROCS). The
// result is bit-for-bit deterministic in r at any worker count:
//
//   - trial i's randomness is derived by index — rng.SeedAt(base, i) for a
//     base drawn once from r — so the tokens and simulator seed of a trial
//     depend on neither scheduling nor the worker count;
//   - each trial's simulator runs single-threaded (simnet.Config.Workers=1)
//     so trial-level parallelism is not oversubscribed by node-level
//     parallelism;
//   - on error the failure of the lowest trial index wins, which is what a
//     sequential loop over the same indexed streams would report first.
//
// The sequential EstimateError draws tokens straight from r, so the two
// estimators sample different (equally valid) trial sets; only
// EstimateErrorParallel is invariant under its workers argument.
func EstimateErrorParallel(g *graph.Graph, d dist.Distribution, p Params, wantAccept bool, trials, workers int, r *rng.RNG) (float64, error) {
	if p.Tau < 2 {
		return 0, fmt.Errorf("congest: package size τ=%d < 2", p.Tau)
	}
	if trials <= 0 {
		return 0, nil
	}
	// One draw fixes every trial's randomness and advances r by the same
	// amount at any worker count.
	base := r.Uint64()
	wrong, err := trialpool.Count(trials, workers, func() func(int) (bool, error) {
		gen := rng.New(0)
		tokens := make([]uint64, g.N())
		return func(i int) (bool, error) {
			gen.SeedAt(base, uint64(i))
			for v := range tokens {
				tokens[v] = uint64(d.Sample(gen))
			}
			res, err := runUniformityTrial(g, tokens, p, gen.Uint64())
			if err != nil {
				return false, err
			}
			return res.Accept != wantAccept, nil
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(wrong) / float64(trials), nil
}

// runUniformityTrial is one estimator trial: a single-threaded simulation
// (trial-level parallelism already saturates the cores) with no tracer.
func runUniformityTrial(g *graph.Graph, tokens []uint64, p Params, seed uint64) (UniformityResult, error) {
	nodes, impls, err := buildNodes(g, tokens, ModeUniformity, p.Tau, p.T, nil)
	if err != nil {
		return UniformityResult{}, err
	}
	stats, err := simnet.Run(g, nodes, simnet.Config{
		MaxBytesPerMessage: congestBandwidth,
		Seed:               seed,
		Workers:            1,
	})
	if err != nil {
		return UniformityResult{}, err
	}
	return collectUniformity(stats, impls)
}
