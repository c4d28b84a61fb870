package congest

import (
	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/simnet"
	"github.com/unifdist/unifdist/internal/tester"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// Schedule is what one run of the Theorem 1.4 protocol fixes on a graph
// for given (τ, T). The node programs forward tokens without reading them,
// draw no randomness and send fixed-width messages, so the rounds, messages
// and bytes, the root, and which token positions end up in which package,
// in which order, are the same for every input: trials differ only in the
// package contents. A schedule is read off one run on tag tokens (node v
// holds v), whose packages are the positions themselves.
type Schedule struct {
	// Stats is the simulator's accounting, shared by every input.
	Stats simnet.Stats
	// Root is the elected leader (the maximum ID).
	Root int
	// Packages[i] lists the positions (node IDs) whose tokens package i
	// holds, in package order.
	Packages [][]int
	// Discarded lists the positions of the tokens the root discarded.
	Discarded []int
	// Tau is the package size and T the rejection threshold.
	Tau, T int
}

// RunSchedule runs the uniformity protocol on g once, on tag tokens, and
// returns its schedule.
func RunSchedule(g *graph.Graph, p Params, opt Options) (Schedule, error) {
	tags := make([]uint64, g.N())
	for v := range tags {
		tags[v] = uint64(v)
	}
	res, err := RunUniformity(g, tags, p, opt)
	if err != nil {
		return Schedule{}, err
	}
	s := Schedule{Stats: res.Stats, Root: res.Root, Packages: make([][]int, len(res.Packages)), Tau: p.Tau, T: p.T}
	packaged := make([]bool, g.N())
	for i, pkg := range res.Packages {
		s.Packages[i] = make([]int, len(pkg))
		for j, v := range pkg {
			s.Packages[i][j] = int(v)
			packaged[v] = true
		}
	}
	for v, ok := range packaged {
		if !ok {
			s.Discarded = append(s.Discarded, v)
		}
	}
	return s, nil
}

// Network returns the schedule's virtual network, Theorem 1.4's reduction
// to Theorem 1.2: one node per package, each the single-collision test on
// τ samples from a domain of size n, under the threshold rule T. Laying
// node i's samples of an indexed trial out on Packages[i] and running the
// protocol on them gives RunAt's verdict and reject count, so
// EstimateErrorAt on this network estimates the CONGEST tester's error
// without simulating a round.
func (s Schedule) Network(n int) (*zeroround.Network, error) {
	nodes := make([]tester.Tester, len(s.Packages))
	node := tester.NewBlockCollision(n, s.Tau, 1)
	for i := range nodes {
		nodes[i] = node
	}
	return zeroround.NewNetwork(nodes, zeroround.ThresholdRule{T: s.T})
}
