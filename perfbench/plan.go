package main

import (
	"fmt"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/cluster/service"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// Every session tests a domain of domainN elements; the far input is the
// two-bump distribution at L1 distance epsilon from uniform.
const (
	domainN = 64
	epsilon = 1.0
)

// Indices of the two decision rules in buildNetworks' result.
const (
	ruleThreshold = 0
	ruleAND       = 1
)

// input is one precomputed session input: the network it runs, its base
// seed, every node's vote, and the RunAt reference the session's report
// must equal.
type input struct {
	nw        *zeroround.Network
	base      uint64
	k, trials int
	reject    []bool // node-major: reject[node*trials+trial]
	accept    []bool // reference verdict per trial
	rejects   []int  // reference rejecting-node count per trial
}

// buildNetworks solves and builds the threshold (Thm 1.2) and AND (Thm 1.1)
// networks for k nodes, indexed by ruleThreshold and ruleAND.
func buildNetworks(k int) ([2]*zeroround.Network, error) {
	var nws [2]*zeroround.Network
	tc, err := zeroround.SolveThreshold(domainN, k, epsilon)
	if err != nil {
		return nws, fmt.Errorf("solve threshold: %w", err)
	}
	if nws[ruleThreshold], err = zeroround.BuildThreshold(tc); err != nil {
		return nws, fmt.Errorf("build threshold: %w", err)
	}
	ac, err := zeroround.SolveAND(domainN, k, epsilon, 1.0/3)
	if err != nil {
		return nws, fmt.Errorf("solve AND: %w", err)
	}
	if nws[ruleAND], err = zeroround.BuildAND(ac); err != nil {
		return nws, fmt.Errorf("build AND: %w", err)
	}
	return nws, nil
}

// makeInputs precomputes a pool of session inputs from the workload seed.
// Entry p has kind p mod 4 — the rule alternating with p, the input
// (uniform, then far from uniform) every two entries — and a base seed
// derived from (seed, p). Votes come from Network.VoteAt and the reference
// from Network.RunAt; the returned duration is the time spent in VoteAt
// alone.
func makeInputs(nws [2]*zeroround.Network, seed uint64, pool, trials int) ([]*input, time.Duration, error) {
	if pool < 4 || pool%4 != 0 {
		return nil, 0, fmt.Errorf("input pool of %d is not a positive multiple of 4", pool)
	}
	var voteTime time.Duration
	inputs := make([]*input, pool)
	g := rng.New(0)
	for p := range inputs {
		in := &input{nw: nws[p%2], base: rng.At(seed, uint64(p)).Uint64(), trials: trials}
		in.k = in.nw.K()
		var d dist.Distribution = dist.NewUniform(domainN)
		if (p/2)%2 == 1 {
			d = dist.NewTwoBump(domainN, epsilon, in.base)
		}
		sc := in.nw.NewScratch()
		in.reject = make([]bool, in.k*trials)
		start := time.Now()
		for node := 0; node < in.k; node++ {
			for t := 0; t < trials; t++ {
				in.reject[node*trials+t] = in.nw.VoteAt(d, in.base, uint64(t), node, g, sc)
			}
		}
		voteTime += time.Since(start)
		in.accept = make([]bool, trials)
		in.rejects = make([]int, trials)
		for t := 0; t < trials; t++ {
			in.accept[t], in.rejects[t] = in.nw.RunAt(d, in.base, uint64(t), g, sc)
		}
		inputs[p] = in
	}
	return inputs, voteTime, nil
}

// planInput names the pool entry session i runs. It is a pure function of
// (seed, i): the kind is i mod 4, so sessions alternate the rule every
// session and the input every two, and the seed picks among the pool
// entries of that kind.
func planInput(seed uint64, i, pool int) int {
	var g rng.RNG
	g.SeedAt(seed^0x5e55, uint64(i)) // salted apart from the pool's base seeds
	return i%4 + 4*g.Intn(pool/4)
}

// openFrame is the SessionOpen for one input; tenant identifies the client.
func openFrame(in *input, tenant uint32) (*wire.SessionOpen, error) {
	return service.OpenFrame(cluster.Config{Trials: in.trials, BaseSeed: in.base}, in.nw, tenant, false)
}

// checkReport is the correctness gate: the report must equal the RunAt
// reference trial for trial, with every vote present.
func checkReport(rep *cluster.Report, in *input) error {
	if rep.K != in.k || rep.Trials != in.trials {
		return fmt.Errorf("report shape k=%d trials=%d, want k=%d trials=%d", rep.K, rep.Trials, in.k, in.trials)
	}
	for t := 0; t < in.trials; t++ {
		if rep.Verdicts[t] != in.accept[t] || rep.Rejects[t] != in.rejects[t] ||
			rep.Votes[t] != in.k || rep.Missing[t] != 0 {
			return fmt.Errorf("trial %d: verdict=%v rejects=%d votes=%d missing=%d, want verdict=%v rejects=%d votes=%d missing=0",
				t, rep.Verdicts[t], rep.Rejects[t], rep.Votes[t], rep.Missing[t], in.accept[t], in.rejects[t], in.k)
		}
	}
	return nil
}

// streams is one session's encoded traffic: frames back to back in buf,
// frame f spanning buf[ends[f-1]:ends[f]], and peer p's frames being
// frames[first[p]:first[p+1]].
type streams struct {
	buf   []byte
	ends  []int
	first []int
}

// frame returns frame f's bytes.
func (s *streams) frame(f int) []byte {
	lo := 0
	if f > 0 {
		lo = s.ends[f-1]
	}
	return s.buf[lo:s.ends[f]]
}

func (s *streams) reset() {
	s.buf, s.ends, s.first = s.buf[:0], s.ends[:0], s.first[:0]
}

func (s *streams) endFrame() { s.ends = append(s.ends, len(s.buf)) }

func (s *streams) startPeer() { s.first = append(s.first, len(s.ends)) }

func (s *streams) finish() { s.first = append(s.first, len(s.ends)) }

// peers returns the number of peer streams.
func (s *streams) peers() int { return len(s.first) - 1 }

// encodeSession encodes every node's traffic for one admitted session —
// Hello, its votes, Done — bound to the granted session ID. With batch 0
// each vote is one Vote frame; otherwise votes go in VoteBatch frames of
// batch votes. Every frame the clients send is encoded here, so a change
// to the wire format edits this function and encodePartials only.
func encodeSession(s *streams, in *input, session uint32, batch int) error {
	s.reset()
	var (
		hello wire.Hello
		vote  wire.Vote
		done  wire.Done
		vb    wire.VoteBatch
		enc   wire.BatchEncoder
		err   error
	)
	if batch > 0 {
		vb.Votes = make([]wire.BatchVote, 0, batch)
	}
	for node := 0; node < in.k; node++ {
		s.startPeer()
		hello = wire.Hello{Node: uint32(node), K: uint32(in.k), Trials: uint32(in.trials)}
		s.buf = wire.AppendSession(s.buf, &hello, session, wire.TraceContext{})
		s.endFrame()
		votes := in.reject[node*in.trials : (node+1)*in.trials]
		for t, reject := range votes {
			if batch == 0 {
				vote = wire.Vote{Trial: uint32(t), Node: uint32(node), Reject: reject}
				s.buf = wire.AppendSession(s.buf, &vote, session, wire.TraceContext{})
				s.endFrame()
				continue
			}
			vb.Votes = append(vb.Votes, wire.BatchVote{Trial: uint32(t), Node: uint32(node), Reject: reject})
			if len(vb.Votes) == batch || t == len(votes)-1 {
				if s.buf, err = enc.AppendSession(s.buf, &vb, session, wire.TraceContext{}, false); err != nil {
					return fmt.Errorf("encode node %d batch: %w", node, err)
				}
				s.endFrame()
				vb.Votes = vb.Votes[:0]
			}
		}
		done = wire.Done{Node: uint32(node)}
		s.buf = wire.AppendSession(s.buf, &done, session, wire.TraceContext{})
		s.endFrame()
	}
	s.finish()
	return nil
}

// encodePartials encodes what the shards of a tree session send the root:
// per shard an AggHello, the window's per-trial sums in full
// PartialVerdict frames in trial order, and Done. The shards split the
// nodes into contiguous windows like cluster.RunTreeTCP.
func encodePartials(s *streams, in *input, session uint32, shards int) error {
	s.reset()
	entries := make([]wire.PartialEntry, 0, wire.MaxPartialEntries)
	var err error
	for a := 0; a < shards; a++ {
		lo, hi := shardWindow(in.k, shards, a)
		s.startPeer()
		hello := wire.AggHello{Agg: uint32(a), K: uint32(in.k), Trials: uint32(in.trials), Lo: uint32(lo), Hi: uint32(hi)}
		s.buf = wire.AppendSession(s.buf, &hello, session, wire.TraceContext{})
		s.endFrame()
		for t := 0; t < in.trials; t++ {
			e := wire.PartialEntry{Trial: uint32(t), Votes: uint32(hi - lo)}
			for node := lo; node < hi; node++ {
				if in.reject[node*in.trials+t] {
					e.Rejects++
				}
			}
			entries = append(entries, e)
			if len(entries) == wire.MaxPartialEntries || t == in.trials-1 {
				pv := wire.PartialVerdict{Agg: uint32(a), Entries: entries}
				if s.buf, err = wire.AppendPartialSession(s.buf, &pv, session, wire.TraceContext{}); err != nil {
					return fmt.Errorf("encode shard %d partial: %w", a, err)
				}
				s.endFrame()
				entries = entries[:0]
			}
		}
		done := wire.Done{Node: uint32(a)}
		s.buf = wire.AppendSession(s.buf, &done, session, wire.TraceContext{})
		s.endFrame()
	}
	s.finish()
	return nil
}

// shardWindow is shard a's node window [lo, hi) when k nodes are split
// evenly over shards contiguous windows.
func shardWindow(k, shards, a int) (lo, hi int) {
	return a * k / shards, (a + 1) * k / shards
}
