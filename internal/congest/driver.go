package congest

import (
	"fmt"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
)

// congestBandwidth is the simulator's CONGEST budget in bytes per edge per
// round: 16 bytes = 128 bits = Θ(log n) for every domain this library
// targets.
const congestBandwidth = 16

// Bandwidth returns the simulator's CONGEST budget in bytes per edge per
// round, for tracers reporting bandwidth utilization against it.
func Bandwidth() int { return congestBandwidth }

// PackagingResult reports a τ-token-packaging execution (Theorem 5.1).
type PackagingResult struct {
	// Stats is the simulator's round/message accounting.
	Stats simnet.Stats
	// Packages is every package output by any node.
	Packages [][]uint64
	// PerNodePackages[v] is the number of packages node v output.
	PerNodePackages []int
	// Discarded is the number of tokens the root discarded (≤ τ−1).
	Discarded int
	// Root is the elected leader (the maximum ID).
	Root int
}

// Options are a CONGEST run's simulator settings. The zero value runs
// untraced on a GOMAXPROCS-sized pool; a run's result, stats and trace are
// identical at any Workers value.
type Options struct {
	// Tracer, if non-nil, observes every round (see simnet.Tracer).
	Tracer simnet.Tracer
	// Workers bounds the simulator's node-execution pool; 0 means
	// GOMAXPROCS.
	Workers int
}

// run executes CONGEST node programs on g under the 16-byte budget: every
// protocol's one way into the simulator. No node program reads its
// context's generator, so the simulator seed stays zero and a run is a
// function of the graph, the inputs and the parameters alone.
func run(g *graph.Graph, nodes []simnet.Node, opt Options) (simnet.Stats, error) {
	return simnet.Run(g, nodes, simnet.Config{
		MaxBytesPerMessage: congestBandwidth,
		Tracer:             opt.Tracer,
		Workers:            opt.Workers,
	})
}

// RunTokenPackaging solves τ-token packaging on g: node v starts with
// tokens[v], and the nodes collectively output packages of exactly tau
// tokens with at most tau−1 tokens lost (discarded at the root).
func RunTokenPackaging(g *graph.Graph, tokens []uint64, tau int, opt Options) (PackagingResult, error) {
	nodes, impls, err := buildNodes(g, tokens, ModePackagingOnly, tau, 0, nil)
	if err != nil {
		return PackagingResult{}, err
	}
	stats, err := run(g, nodes, opt)
	if err != nil {
		return PackagingResult{}, err
	}
	res := PackagingResult{
		Stats:           stats,
		PerNodePackages: make([]int, g.N()),
		Root:            -1,
	}
	for v, nd := range impls {
		if nd.Err() != nil {
			return PackagingResult{}, fmt.Errorf("congest: node %d: %w", v, nd.Err())
		}
		res.Packages = append(res.Packages, nd.packages...)
		res.PerNodePackages[v] = len(nd.packages)
		if nd.isRoot() {
			if res.Root != -1 {
				return PackagingResult{}, fmt.Errorf("congest: multiple roots %d and %d", res.Root, v)
			}
			res.Root = v
			res.Discarded = nd.discarded
		}
	}
	if res.Root == -1 {
		return PackagingResult{}, fmt.Errorf("congest: no root elected")
	}
	return res, nil
}

// UniformityResult reports a full Theorem 1.4 execution.
type UniformityResult struct {
	// Accept is the network's verdict (true = "uniform").
	Accept bool
	// Rejects and Virtuals are the root's aggregated counts of rejecting
	// packages and total packages.
	Rejects, Virtuals int
	// Stats, Packages, Discarded and Root are as in PackagingResult.
	Stats     simnet.Stats
	Packages  [][]uint64
	Discarded int
	Root      int
	// DiscoveredK is the network size the root learned from the completion
	// echoes; Tau and T are the parameters actually used (equal to the
	// configured ones, or solver-derived in the unknown-k extension).
	DiscoveredK int
	Tau, T      int
}

// RunUniformity runs the CONGEST uniformity tester with one sample per node
// (tokens[v] is node v's sample from the unknown distribution).
func RunUniformity(g *graph.Graph, tokens []uint64, p Params, opt Options) (UniformityResult, error) {
	if p.Tau < 2 {
		return UniformityResult{}, fmt.Errorf("congest: package size τ=%d < 2", p.Tau)
	}
	nodes, impls, err := buildNodes(g, tokens, ModeUniformity, p.Tau, p.T, nil)
	if err != nil {
		return UniformityResult{}, err
	}
	return runUniformity(g, nodes, impls, opt)
}

// runUniformity runs built uniformity nodes and gathers their outcomes.
func runUniformity(g *graph.Graph, nodes []simnet.Node, impls []*node, opt Options) (UniformityResult, error) {
	stats, err := run(g, nodes, opt)
	if err != nil {
		return UniformityResult{}, err
	}
	return collectUniformity(stats, impls)
}

// collectUniformity gathers the per-node outcomes of a uniformity run.
func collectUniformity(stats simnet.Stats, impls []*node) (UniformityResult, error) {
	res := UniformityResult{
		Stats: stats,
		Root:  -1,
	}
	for v, nd := range impls {
		if nd.Err() != nil {
			return UniformityResult{}, fmt.Errorf("congest: node %d: %w", v, nd.Err())
		}
		if nd.decision < 0 {
			return UniformityResult{}, fmt.Errorf("congest: node %d ended without a decision", v)
		}
		res.Packages = append(res.Packages, nd.packages...)
		if nd.isRoot() {
			if res.Root != -1 {
				return UniformityResult{}, fmt.Errorf("congest: multiple roots %d and %d", res.Root, v)
			}
			res.Root = v
			res.Discarded = nd.discarded
			res.Accept = nd.decision == 1
			res.Rejects = nd.totalRejects
			res.Virtuals = nd.totalVirtuals
			res.DiscoveredK = nd.treeSize
			res.Tau = nd.tau
			res.T = nd.t
		}
	}
	if res.Root == -1 {
		return UniformityResult{}, fmt.Errorf("congest: no root elected")
	}
	return res, nil
}

// RunUniformityUnknownK runs the uniformity protocol without telling the
// nodes the network size: the elected root discovers k from the completion
// echoes, derives (τ, T) with the calibrated solver, and broadcasts them
// with the start signal — an extension beyond the paper, which assumes k
// is known to all nodes.
func RunUniformityUnknownK(g *graph.Graph, tokens []uint64, n int, eps float64) (UniformityResult, error) {
	solver := func(k int) (int, int, error) {
		p, err := SolveParamsCalibrated(n, k, eps)
		if err != nil {
			return 0, 0, err
		}
		return p.Tau, p.T, nil
	}
	nodes, impls, err := buildNodes(g, tokens, ModeUniformity, 0, 0, solver)
	if err != nil {
		return UniformityResult{}, err
	}
	return runUniformity(g, nodes, impls, Options{})
}

func buildNodes(g *graph.Graph, tokens []uint64, mode Mode, tau, threshold int, solver func(k int) (int, int, error)) ([]simnet.Node, []*node, error) {
	if len(tokens) != g.N() {
		return nil, nil, fmt.Errorf("congest: %d tokens for %d nodes", len(tokens), g.N())
	}
	per := make([][]uint64, len(tokens))
	for v, tok := range tokens {
		per[v] = []uint64{tok}
	}
	return buildNodesMulti(g, per, mode, tau, threshold, solver)
}

// buildNodesMulti is buildNodes for the multi-sample generalization: node v
// starts with the sample multiset tokensPerNode[v].
func buildNodesMulti(g *graph.Graph, tokensPerNode [][]uint64, mode Mode, tau, threshold int, solver func(k int) (int, int, error)) ([]simnet.Node, []*node, error) {
	if len(tokensPerNode) != g.N() {
		return nil, nil, fmt.Errorf("congest: %d token sets for %d nodes", len(tokensPerNode), g.N())
	}
	if tau < 1 && solver == nil {
		return nil, nil, fmt.Errorf("congest: package size τ=%d < 1", tau)
	}
	nodes := make([]simnet.Node, g.N())
	impls := make([]*node, g.N())
	for v := range nodes {
		impls[v] = newNode(mode, tau, threshold, tokensPerNode[v], solver)
		nodes[v] = impls[v]
	}
	return nodes, impls, nil
}

// RunUniformityMulti runs the uniformity protocol with s ≥ 1 samples per
// node — the paper's "generalizes in a straightforward manner to larger s":
// node v contributes every sample in tokensPerNode[v] to the token
// pipeline.
func RunUniformityMulti(g *graph.Graph, tokensPerNode [][]uint64, p Params) (UniformityResult, error) {
	if p.Tau < 2 {
		return UniformityResult{}, fmt.Errorf("congest: package size τ=%d < 2", p.Tau)
	}
	nodes, impls, err := buildNodesMulti(g, tokensPerNode, ModeUniformity, p.Tau, p.T, nil)
	if err != nil {
		return UniformityResult{}, err
	}
	return runUniformity(g, nodes, impls, Options{})
}
