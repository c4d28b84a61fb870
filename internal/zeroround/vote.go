package zeroround

import (
	"time"

	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
	"github.com/unifdist/unifdist/internal/trialpool"
)

// This file is the network's one sampling contract: an indexed randomness
// assignment that names every (trial, node) sample stream independently of
// execution order. VoteStream derives node i's generator for trial t from
// (base, t, i) alone, so any execution — the in-process RunAt, the parallel
// EstimateErrorAt behind the paper tables, or k real machines over the
// cluster runtime (internal/cluster), at any connection ordering, any
// scheduling, any retry — produces exactly the same votes. The cluster's
// differential tests pin this equivalence trial for trial, and a table cell
// estimated at base b names the trials a cluster session at base b runs.

// VoteStream seeds g as the private sample stream of node `node` in trial
// `trial` of a k-node indexed execution with base seed base. Streams for
// distinct (trial, node) pairs are statistically independent (rng.SeedAt),
// and the mapping is pure: any party that knows (base, k) can reproduce any
// node's randomness for any trial.
func VoteStream(g *rng.RNG, base, trial uint64, node, k int) {
	g.SeedAt(base, trial*uint64(k)+uint64(node))
}

// Node returns node i's tester, from which the cluster node client resolves
// the same tester.Voter that VoteAt runs.
func (nw *Network) Node(i int) tester.Tester { return nw.nodes[i] }

// VoteAt computes node `node`'s vote for indexed trial `trial` and
// returns true when the node rejects. It reseeds g via VoteStream and
// votes through the node's tester.Voter, which draws from d only the
// samples that decide the vote: a block-collision node stops at its first
// block without a repeat. The vote equals the node's Test on its full
// sample set from the same stream; g's state afterwards is unspecified.
// A nil sc allocates per call; Monte-Carlo loops should reuse one Scratch.
func (nw *Network) VoteAt(d dist.Distribution, base, trial uint64, node int, g *rng.RNG, sc *Scratch) (reject bool) {
	if sc == nil {
		sc = nw.NewScratch()
	}
	VoteStream(g, base, trial, node, len(nw.nodes))
	return nw.voters[node].Vote(d, g, sc.buf, sc.col)
}

// RunAt executes indexed trial `trial` in full — every node votes through
// VoteAt, no early stopping — and returns the network verdict with the
// rejecting-node count. It is the order-independent reference execution
// the cluster runtime is differentially tested against: permuting the node
// loop (or distributing it over real connections) cannot change the
// result, because each node's randomness is fixed by (base, trial, node)
// alone. nil g or sc allocate per call.
func (nw *Network) RunAt(d dist.Distribution, base, trial uint64, g *rng.RNG, sc *Scratch) (accept bool, rejects int) {
	if g == nil {
		g = rng.New(0)
	}
	if sc == nil {
		sc = nw.NewScratch()
	}
	for i := range nw.nodes {
		if nw.VoteAt(d, base, trial, i, g, sc) {
			rejects++
		}
	}
	return nw.rule.Accept(rejects, len(nw.nodes)), rejects
}

// verdictAt is RunAt restricted to the verdict: it polls the nodes in index
// order and, when the rule is an EarlyDecider, stops as soon as the outcome
// is fixed (the first rejection under AND, the T-th under threshold). The
// votes it does take are RunAt's, so the verdict is RunAt's too.
func (nw *Network) verdictAt(d dist.Distribution, base, trial uint64, g *rng.RNG, sc *Scratch) bool {
	k := len(nw.nodes)
	rejects := 0
	for i := range nw.nodes {
		if nw.VoteAt(d, base, trial, i, g, sc) {
			rejects++
		}
		if nw.early != nil {
			if accept, done := nw.early.Decided(rejects, k-i-1); done {
				return accept
			}
		}
	}
	return nw.rule.Accept(rejects, k)
}

// EstimateErrorAt returns the fraction of indexed trials [0, trials) whose
// RunAt verdict differs from wantAccept, or 0 when trials ≤ 0. It consumes
// no generator state beyond the base it is given, so it names the exact
// trial set a cluster session at the same base executes.
//
// Trials run on the shared pool (internal/trialpool) with nw.Workers
// goroutines, each owning one generator; a trial borrows its Scratch from
// a pool that outlives the call and the network. Trials stop polling
// nodes once the rule's EarlyDecider fixes the verdict. Every trial's
// verdict is a pure function of (base, trial), so the estimate is
// bit-for-bit a full RunAt loop's at any worker count and GOMAXPROCS.
//
// When nw.Obs is attached, each trial's latency goes into the shared
// zeroround.trial_ns histogram and the call adds to the zeroround.trials
// and zeroround.wrong counters; the registry's metrics are atomic, so this
// is safe across the pool.
func (nw *Network) EstimateErrorAt(d dist.Distribution, wantAccept bool, trials int, base uint64) float64 {
	if trials <= 0 {
		return 0
	}
	var trialNS *obs.Histogram
	if nw.Obs != nil {
		trialNS = nw.Obs.Histogram("zeroround.trial_ns", obs.LatencyBuckets())
	}
	wrong, _ := trialpool.Count(trials, nw.Workers, func() func(int) (bool, error) {
		g := rng.New(0)
		return func(t int) (bool, error) {
			sc := nw.borrowScratch()
			defer scratchPool.Put(sc)
			if trialNS == nil {
				return nw.verdictAt(d, base, uint64(t), g, sc) != wantAccept, nil
			}
			start := time.Now() //unifvet:allow wallclock per-trial latency histogram; verdicts don't read the clock
			got := nw.verdictAt(d, base, uint64(t), g, sc)
			trialNS.Observe(time.Since(start).Nanoseconds()) //unifvet:allow wallclock per-trial latency histogram; verdicts don't read the clock
			return got != wantAccept, nil
		}
	})
	if nw.Obs != nil {
		nw.Obs.Counter("zeroround.trials").Add(int64(trials))
		nw.Obs.Counter("zeroround.wrong").Add(int64(wrong))
	}
	return float64(wrong) / float64(trials)
}
